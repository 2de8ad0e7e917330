#include "src/query/trust_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/prng.h"
#include "src/landscape/index_view.h"
#include "src/query/index_io.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/store/membership.h"
#include "src/store/trust.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "src/x509/builder.h"
#include "tests/referee/intervals_reference.h"

namespace rs::query {
namespace {

using rs::store::CertInterner;
using rs::store::IdSet;
using rs::store::make_tls_anchor;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::store::TrustEntry;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Query Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(std::string provider, Date date,
              std::vector<TrustEntry> entries) {
  Snapshot s;
  s.provider = std::move(provider);
  s.date = date;
  s.version = date.to_string();
  s.entries = std::move(entries);
  return s;
}

// One provider, four snapshots.  `flapper` is present in snapshots 1 and 3
// only — the removed-then-re-added shape that must yield two intervals.
struct Fixture {
  std::shared_ptr<const rs::x509::Certificate> stable = make_cert(1);
  std::shared_ptr<const rs::x509::Certificate> flapper = make_cert(2);
  std::shared_ptr<const rs::x509::Certificate> outsider = make_cert(3);
  StoreDatabase db;
  CertInterner interner;
  TrustIndex index;

  Fixture() {
    ProviderHistory h("P");
    h.add(snap("P", Date::ymd(2019, 1, 1),
               {make_tls_anchor(stable), make_tls_anchor(flapper)}));
    h.add(snap("P", Date::ymd(2019, 7, 1), {make_tls_anchor(stable)}));
    h.add(snap("P", Date::ymd(2020, 1, 1),
               {make_tls_anchor(stable), make_tls_anchor(flapper)}));
    h.add(snap("P", Date::ymd(2020, 7, 1), {make_tls_anchor(stable)}));
    db.add(std::move(h));
    // A second provider so `outsider` is a known certificate that P never
    // carried (must answer kUntrusted inside P's coverage, not kNotCovered).
    ProviderHistory other("Q");
    other.add(snap("Q", Date::ymd(2019, 6, 1), {make_tls_anchor(outsider)}));
    db.add(std::move(other));
    interner = CertInterner::from_database(db);
    index = TrustIndex::build(db, interner);
  }
};

TEST(TrustIndex, ReAddedRootHasTwoDisjointIntervals) {
  Fixture f;
  const auto spans = f.index.lineage(f.flapper->sha256(), Scope::kTls);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].provider, "P");
  EXPECT_EQ(spans[0].interval.added, Date::ymd(2019, 1, 1));
  ASSERT_TRUE(spans[0].interval.removed.has_value());
  EXPECT_EQ(*spans[0].interval.removed, Date::ymd(2019, 7, 1));
  EXPECT_EQ(spans[1].provider, "P");
  EXPECT_EQ(spans[1].interval.added, Date::ymd(2020, 1, 1));
  ASSERT_TRUE(spans[1].interval.removed.has_value());
  EXPECT_EQ(*spans[1].interval.removed, Date::ymd(2020, 7, 1));

  // The gap between the intervals answers untrusted, both runs trusted.
  EXPECT_EQ(f.index.is_trusted(f.flapper->sha256(), "P", Date::ymd(2019, 3, 1),
                               Scope::kTls),
            TrustAnswer::kTrusted);
  EXPECT_EQ(f.index.is_trusted(f.flapper->sha256(), "P",
                               Date::ymd(2019, 10, 1), Scope::kTls),
            TrustAnswer::kUntrusted);
  EXPECT_EQ(f.index.is_trusted(f.flapper->sha256(), "P", Date::ymd(2020, 3, 1),
                               Scope::kTls),
            TrustAnswer::kTrusted);
  EXPECT_EQ(f.index.is_trusted(f.flapper->sha256(), "P", Date::ymd(2020, 7, 1),
                               Scope::kTls),
            TrustAnswer::kUntrusted);
}

TEST(TrustIndex, OutsideCoverageIsNotCoveredNotFalse) {
  Fixture f;
  // Day before the first snapshot and day after the last.
  EXPECT_EQ(f.index.is_trusted(f.stable->sha256(), "P",
                               Date::ymd(2018, 12, 31), Scope::kTls),
            TrustAnswer::kNotCovered);
  EXPECT_EQ(f.index.is_trusted(f.stable->sha256(), "P", Date::ymd(2020, 7, 2),
                               Scope::kTls),
            TrustAnswer::kNotCovered);
  // Coverage boundaries themselves answer.
  EXPECT_EQ(f.index.is_trusted(f.stable->sha256(), "P", Date::ymd(2019, 1, 1),
                               Scope::kTls),
            TrustAnswer::kTrusted);
  EXPECT_EQ(f.index.is_trusted(f.stable->sha256(), "P", Date::ymd(2020, 7, 1),
                               Scope::kTls),
            TrustAnswer::kTrusted);
  // store_at mirrors the same boundary behaviour.
  EXPECT_FALSE(
      f.index.store_at("P", Date::ymd(2018, 12, 31), Scope::kTls).has_value());
  EXPECT_TRUE(
      f.index.store_at("P", Date::ymd(2020, 7, 1), Scope::kTls).has_value());

  const auto cov = f.index.coverage("P");
  ASSERT_TRUE(cov.has_value());
  EXPECT_EQ(cov->first, Date::ymd(2019, 1, 1));
  EXPECT_EQ(cov->last, Date::ymd(2020, 7, 1));
}

TEST(TrustIndex, UnknownCertificateInsideCoverageIsUntrusted) {
  Fixture f;
  EXPECT_EQ(f.index.is_trusted(f.outsider->sha256(), "P",
                               Date::ymd(2019, 3, 1), Scope::kTls),
            TrustAnswer::kUntrusted);
}

TEST(TrustIndex, UnknownProviderIsNotCovered) {
  Fixture f;
  EXPECT_FALSE(f.index.has_provider("Nope"));
  EXPECT_EQ(f.index.is_trusted(f.stable->sha256(), "Nope",
                               Date::ymd(2019, 3, 1), Scope::kTls),
            TrustAnswer::kNotCovered);
  EXPECT_FALSE(f.index.coverage("Nope").has_value());
  EXPECT_FALSE(
      f.index.store_at("Nope", Date::ymd(2019, 3, 1), Scope::kTls).has_value());
}

TEST(TrustIndex, StoreAtResolvesToLatestSnapshotOnOrBefore) {
  Fixture f;
  const auto view = f.index.store_at("P", Date::ymd(2019, 9, 9), Scope::kTls);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->provider, "P");
  EXPECT_EQ(view->snapshot_date, Date::ymd(2019, 7, 1));
  EXPECT_EQ(view->version, "2019-07-01");
  ASSERT_NE(view->roots, nullptr);
  EXPECT_EQ(view->roots->size(), 1u);
  const auto id = f.interner.id_of(f.stable->sha256());
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(view->roots->contains(*id));
}

TEST(TrustIndex, DiffReportsAddedAndRemoved) {
  Fixture f;
  const auto delta = f.index.diff("P", Date::ymd(2019, 8, 1),
                                  Date::ymd(2020, 2, 1), Scope::kTls);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->from.snapshot_date, Date::ymd(2019, 7, 1));
  EXPECT_EQ(delta->to.snapshot_date, Date::ymd(2020, 1, 1));
  EXPECT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->removed.size(), 0u);
  const auto id = f.interner.id_of(f.flapper->sha256());
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(delta->added.contains(*id));
  // Reversed direction swaps the delta.
  const auto back = f.index.diff("P", Date::ymd(2020, 2, 1),
                                 Date::ymd(2019, 8, 1), Scope::kTls);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->added.size(), 0u);
  EXPECT_EQ(back->removed.size(), 1u);
  // One uncovered endpoint poisons the diff.
  EXPECT_FALSE(f.index.diff("P", Date::ymd(2018, 1, 1), Date::ymd(2020, 2, 1),
                            Scope::kTls)
                   .has_value());
}

TEST(TrustIndex, ProvidersTrustingReportsNotCoveredSeparately) {
  Fixture f;
  // 2019-03-01: P covers (and trusts stable); Q's coverage is the single
  // snapshot date 2019-06-01, so Q lands in not_covered.
  std::vector<std::string> skipped;
  const auto trusting = f.index.providers_trusting(
      f.stable->sha256(), Date::ymd(2019, 3, 1), Scope::kTls, &skipped);
  EXPECT_EQ(trusting, std::vector<std::string>{"P"});
  EXPECT_EQ(skipped, std::vector<std::string>{"Q"});
}

TEST(TrustIndex, ScopesAreIndependent) {
  auto cert = make_cert(7);
  TrustEntry entry;
  entry.certificate = cert;
  entry.purposes[0].level = rs::store::TrustLevel::kMustVerify;
  entry.purposes[1].level = rs::store::TrustLevel::kTrustedDelegator;
  entry.purposes[2].level = rs::store::TrustLevel::kDistrusted;

  StoreDatabase db;
  ProviderHistory h("S");
  h.add(snap("S", Date::ymd(2020, 1, 1), {entry}));
  h.add(snap("S", Date::ymd(2020, 6, 1), {entry}));
  db.add(std::move(h));
  const auto interner = CertInterner::from_database(db);
  const auto index = TrustIndex::build(db, interner);

  const Date d = Date::ymd(2020, 3, 1);
  EXPECT_EQ(index.is_trusted(cert->sha256(), "S", d, Scope::kTls),
            TrustAnswer::kUntrusted);
  EXPECT_EQ(index.is_trusted(cert->sha256(), "S", d, Scope::kEmail),
            TrustAnswer::kTrusted);
  EXPECT_EQ(index.is_trusted(cert->sha256(), "S", d, Scope::kCode),
            TrustAnswer::kUntrusted);
  // kPresent sees the entry regardless of trust bits.
  EXPECT_EQ(index.is_trusted(cert->sha256(), "S", d, Scope::kPresent),
            TrustAnswer::kTrusted);
}

TEST(TrustIndex, EqualDatedSnapshotsCollapseToTheLast) {
  auto a = make_cert(11);
  auto b = make_cert(12);
  StoreDatabase db;
  ProviderHistory h("C");
  h.add(snap("C", Date::ymd(2020, 1, 1), {make_tls_anchor(a)}));
  h.add(snap("C", Date::ymd(2020, 1, 1), {make_tls_anchor(b)}));  // same day
  h.add(snap("C", Date::ymd(2020, 6, 1), {make_tls_anchor(b)}));
  db.add(std::move(h));
  const auto interner = CertInterner::from_database(db);
  const auto index = TrustIndex::build(db, interner);

  // ProviderHistory::at resolves the later same-day snapshot; the index
  // must agree, so `a` never appears trusted.
  EXPECT_EQ(index.is_trusted(a->sha256(), "C", Date::ymd(2020, 1, 1),
                             Scope::kTls),
            TrustAnswer::kUntrusted);
  EXPECT_EQ(index.is_trusted(b->sha256(), "C", Date::ymd(2020, 1, 1),
                             Scope::kTls),
            TrustAnswer::kTrusted);
  EXPECT_TRUE(index.lineage(a->sha256(), Scope::kTls).empty());
}

TEST(TrustIndex, OpenEndedIntervalForStillPresentRoot) {
  Fixture f;
  const auto spans = f.index.lineage(f.stable->sha256(), Scope::kTls);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].provider, "P");
  EXPECT_EQ(spans[0].interval.added, Date::ymd(2019, 1, 1));
  EXPECT_FALSE(spans[0].interval.removed.has_value());
  // Q's only root is likewise open-ended (single-snapshot history).
  const auto q_spans = f.index.lineage(f.outsider->sha256(), Scope::kTls);
  ASSERT_EQ(q_spans.size(), 1u);
  EXPECT_EQ(q_spans[0].provider, "Q");
  EXPECT_FALSE(q_spans[0].interval.removed.has_value());
}

TEST(TrustIndex, StatsAccessors) {
  Fixture f;
  EXPECT_EQ(f.index.provider_count(), 2u);
  EXPECT_EQ(f.index.providers(),
            (std::vector<std::string>{"P", "Q"}));
  EXPECT_EQ(f.index.resolution_point_count(), 5u);  // 4 dates + 1 date
}

// --- derived runs against the referee --------------------------------------

// `set` as deserialize returns it: trimmed to its last non-zero word.
IdSet trimmed(const IdSet& set) {
  std::vector<std::uint64_t> words = set.words();
  while (!words.empty() && words.back() == 0) words.pop_back();
  return IdSet::from_words(std::move(words));
}

IdSet ids_set(std::size_t universe, std::vector<std::uint32_t> ids) {
  return IdSet(universe, ids);
}

std::vector<Date> dates_for(std::size_t n) {
  std::vector<Date> dates;
  for (std::size_t k = 0; k < n; ++k) {
    dates.push_back(Date::ymd(2010, 1, 1) + static_cast<int>(30 * k + k % 7));
  }
  return dates;
}

// The one-id derivation, for every id of the universe, against the
// referee's all-ids derivation over the same sequence.
void expect_matches_referee(const std::vector<Date>& dates,
                            const std::vector<IdSet>& sets,
                            std::size_t universe, const std::string& what) {
  const auto expected = rs::referee::intervals::derive(dates, sets, universe);
  std::vector<LineageSpan> spans;
  for (std::uint32_t id = 0; id < universe; ++id) {
    // Appends after what is already there, labelled with the provider.
    spans.assign(1,
                 LineageSpan{"prior", {Date::ymd(2000, 1, 1), std::nullopt}});
    TrustIndex::intervals_of("P", dates, sets, id, spans);
    std::vector<TrustInterval> runs;
    for (std::size_t i = 1; i < spans.size(); ++i) {
      ASSERT_EQ(spans[i].provider, "P") << what << ", id " << id;
      runs.push_back(spans[i].interval);
    }
    ASSERT_EQ(spans[0].provider, "prior") << what << ", id " << id;
    ASSERT_EQ(runs, expected[id]) << what << ", id " << id;
  }
}

void expect_matches_referee(const std::vector<IdSet>& sets,
                            std::size_t universe, const std::string& what) {
  expect_matches_referee(dates_for(sets.size()), sets, universe, what);
}

// perfbench's default sim_index point at seed 1.
rs::synth::SimulatorConfig sim_index_config() {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = 1;
  cfg.ca_count = 600;
  cfg.program_count = 6;
  cfg.derivative_count = 6;
  cfg.snapshot_interval_days = 30;
  cfg.ct_log_count = 2;
  return cfg;
}

TEST(DeriveIntervals, MatchesReferee) {
  // Hand-picked sequences over a universe that is not a multiple of 64,
  // each in both representations: pre-sized to the universe (as built)
  // and trimmed (as loaded).
  constexpr std::size_t kU = 130;
  const std::vector<std::vector<IdSet>> picked = {
      {},
      {IdSet()},
      {IdSet(kU), IdSet(), IdSet(kU)},
      {ids_set(kU, {0, kU - 1}), ids_set(kU, {0}), ids_set(kU, {kU - 1})},
      // A set shrinks by two words, then grows back: the removed tail ids
      // must close even though the later set has no word for them.
      {ids_set(kU, {3, 70, 129}), ids_set(kU, {3}), ids_set(kU, {70, 129})},
      // Removal and re-add, twice, with equal consecutive sets between.
      {ids_set(kU, {5, 64}), ids_set(kU, {5, 64}), ids_set(kU, {64}),
       ids_set(kU, {5, 64}), ids_set(kU, {5}), ids_set(kU, {5, 64})},
      {ids_set(kU, {kU - 1}), IdSet(), ids_set(kU, {kU - 1})},
  };
  for (std::size_t c = 0; c < picked.size(); ++c) {
    expect_matches_referee(picked[c], kU, "picked case " + std::to_string(c));
    std::vector<IdSet> loaded;
    for (const IdSet& set : picked[c]) loaded.push_back(trimmed(set));
    expect_matches_referee(loaded, kU,
                           "picked case " + std::to_string(c) + ", trimmed");
  }

  // Random sequences: empty, equal-to-previous, toggled (re-adds after
  // removals) and fresh random sets, the last id often among them, each
  // set randomly trimmed.
  rs::crypto::Prng rng(22);
  for (const std::size_t universe : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 200u,
                                     1000u}) {
    for (int trial = 0; trial < 25; ++trial) {
      const std::size_t length = rng.uniform(14);
      std::vector<IdSet> sets;
      for (std::size_t k = 0; k < length; ++k) {
        IdSet next(universe);
        const std::uint64_t shape = rng.uniform(4);
        if (shape == 1 && !sets.empty()) {
          next = sets.back();
        } else if (shape == 2 && !sets.empty()) {
          next = IdSet(universe, sets.back().ids());
          for (int flip = 0; flip < 3; ++flip) {
            const auto id = static_cast<std::uint32_t>(rng.uniform(universe));
            IdSet toggled(universe);
            for (const std::uint32_t x : next.ids()) {
              if (x != id) toggled.insert(x);
            }
            if (!next.contains(id)) toggled.insert(id);
            next = std::move(toggled);
          }
        } else if (shape == 3) {
          // Ids below a random limit, so trimmed sets differ in words.
          const std::size_t limit = 1 + rng.uniform(universe);
          const double density = rng.uniform01();
          for (std::uint32_t id = 0; id < limit; ++id) {
            if (rng.chance(density)) next.insert(id);
          }
          if (rng.chance(0.5)) {
            next.insert(static_cast<std::uint32_t>(universe - 1));
          }
        }
        sets.push_back(rng.chance(0.5) ? trimmed(next) : next);
      }
      expect_matches_referee(sets, universe,
                             "universe " + std::to_string(universe) +
                                 ", trial " + std::to_string(trial));
    }
  }

  // Every lane and scope of perfbench's sim_index database, as built and
  // as loaded.
  const auto eco = rs::synth::simulate_ecosystem(sim_index_config());
  const auto table = rs::store::MembershipTable::build(eco.database);
  const std::size_t universe = table.interner().size();
  for (const auto& [name, history] : eco.database.histories()) {
    std::vector<Date> dates;
    for (const auto& snapshot : history.snapshots()) {
      dates.push_back(snapshot.date);
    }
    const auto& lane = table.lane(history);
    for (std::size_t s = 0; s < rs::store::kScopeCount; ++s) {
      std::vector<IdSet> built;
      std::vector<IdSet> loaded;
      for (const auto& row : lane) {
        built.push_back(row[s]);
        loaded.push_back(trimmed(row[s]));
      }
      expect_matches_referee(dates, built, universe,
                             name + " scope " + std::to_string(s));
      expect_matches_referee(
          dates, loaded, universe,
          name + " scope " + std::to_string(s) + ", trimmed");
    }
  }
}

// --- first-seen tables against lineage --------------------------------------

// first_seen_tables walks the sets word by word; lineage derives each id's
// runs one set at a time.  A provider's first-seen date of an id is the
// earliest `added` among its spans, in every scope.
void expect_first_seen_is_earliest_added(const TrustIndex& index,
                                         const std::string& what) {
  const auto names = index.providers();
  const std::size_t universe = index.interner().size();
  for (const Scope scope :
       {Scope::kTls, Scope::kEmail, Scope::kCode, Scope::kPresent}) {
    const auto tables = rs::landscape::first_seen_tables(index, scope);
    ASSERT_EQ(tables.size(), names.size()) << what;
    for (const auto& table : tables) ASSERT_EQ(table.size(), universe) << what;
    for (std::uint32_t id = 0; id < universe; ++id) {
      std::vector<std::optional<Date>> earliest(names.size());
      for (const auto& span :
           index.lineage(index.interner().digest_of(id), scope)) {
        const auto p = static_cast<std::size_t>(
            std::find(names.begin(), names.end(), span.provider) -
            names.begin());
        ASSERT_LT(p, names.size()) << what;
        if (!earliest[p] || span.interval.added < *earliest[p]) {
          earliest[p] = span.interval.added;
        }
      }
      for (std::size_t p = 0; p < names.size(); ++p) {
        ASSERT_EQ(tables[p][id], earliest[p])
            << what << " " << names[p] << " scope " << to_string(scope)
            << " id " << id;
      }
    }
  }
}

TEST(FirstSeenTables, EqualEarliestLineageAdded) {
  const auto check = [](const StoreDatabase& db, const std::string& what) {
    const TrustIndex built =
        TrustIndex::build(db, CertInterner::from_database(db));
    expect_first_seen_is_earliest_added(built, what + ", built");
    // Loaded sets are trimmed to their last non-zero word.
    const std::string image = TrustIndexIO::serialize(built);
    auto loaded = TrustIndexIO::deserialize(
        {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()});
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    expect_first_seen_is_earliest_added(loaded.value(), what + ", loaded");
  };
  check(rs::synth::build_paper_scenario().database(), "paper");
  check(rs::synth::simulate_ecosystem(sim_index_config()).database,
        "sim_index");
}

}  // namespace
}  // namespace rs::query
