// Differential test of the forward timeline replay.
//
// TimelineCursor replays a history once; the reference replay
// (tests/referee/timeline_reference.h) re-filters, re-sorts and replays
// the whole action stream at every date.  After every advance the two
// must agree on the entries in order (the factory's certificate object
// for the same root, with equal per-purpose trust and distrust_after), on
// each entry's root id, and on how many certificates their factories have
// built — the Apple overlay looks certificates up with CertFactory::find,
// so a replay that builds more or fewer by a date changes what it finds.
#include "src/synth/program_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "tests/referee/timeline_reference.h"

namespace rs::synth {
namespace {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Date;

// Advances one cursor through `dates` (non-decreasing) and holds its state
// to the reference replay's after every step.  Cursor and referee each
// build through a factory of their own, so their build counts are
// compared, not shared.
void expect_replays_agree(const Timeline& timeline,
                          const std::vector<Date>& dates, std::uint64_t seed,
                          const std::string& what) {
  CertFactory cursor_factory(seed);
  CertFactory referee_factory(seed);
  TimelineCursor cursor(timeline, cursor_factory);
  for (const Date d : dates) {
    SCOPED_TRACE(what + " at " + d.to_string());
    cursor.advance_to(d);
    std::vector<std::string_view> ids;
    std::vector<const TrustEntry*> entries;
    cursor.for_each_root([&](std::string_view id, const TrustEntry& e) {
      ids.push_back(id);
      entries.push_back(&e);
    });
    const auto expected =
        rs::referee::timeline::materialize(timeline, d, referee_factory);
    const auto expected_ids =
        rs::referee::timeline::root_ids(expected, timeline, referee_factory);

    ASSERT_EQ(cursor_factory.built_count(), referee_factory.built_count());
    ASSERT_EQ(entries.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(ids[i], expected_ids[i]) << "entry " << i;
      ASSERT_EQ(entries[i]->certificate, cursor_factory.find(expected_ids[i]))
          << "entry " << i;
      ASSERT_EQ(entries[i]->certificate->sha256(),
                expected[i].certificate->sha256())
          << "entry " << i;
      ASSERT_EQ(entries[i]->purposes, expected[i].purposes) << "entry " << i;
    }
    const auto copied = cursor.entries();
    ASSERT_EQ(copied.size(), entries.size());
    for (std::size_t i = 0; i < copied.size(); ++i) {
      ASSERT_EQ(copied[i].certificate, entries[i]->certificate);
      ASSERT_EQ(copied[i].purposes, entries[i]->purposes);
    }
  }
}

std::vector<Date> snapshot_dates(const rs::store::StoreDatabase& db,
                                 const std::string& provider) {
  std::vector<Date> dates;
  for (const auto& snap : db.find(provider)->snapshots()) {
    dates.push_back(snap.date);
  }
  return dates;
}

// A derivative snapshot's version names the NSS date it copied
// ("sync-YYYY-MM-DD"); the dates come back in effective-date order, and
// `inversions` counts the snapshots whose effective date is earlier than
// the one before them in snapshot order.
std::vector<Date> effective_dates(const rs::store::ProviderHistory& history,
                                  std::size_t& inversions) {
  std::vector<Date> dates;
  for (const auto& snap : history.snapshots()) {
    EXPECT_EQ(snap.version.rfind("sync-", 0), 0u) << snap.version;
    const auto effective = Date::parse(snap.version.substr(5));
    EXPECT_TRUE(effective.has_value()) << snap.version;
    if (!effective) continue;
    if (!dates.empty() && *effective < dates.back()) ++inversions;
    dates.push_back(*effective);
  }
  std::stable_sort(dates.begin(), dates.end());
  return dates;
}

std::vector<Date> around_action_dates(const Timeline& timeline) {
  std::vector<Date> dates;
  for (const auto& a : timeline.actions()) {
    dates.push_back(a.date - 1);
    dates.push_back(a.date);
    dates.push_back(a.date + 1);
  }
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end()), dates.end());
  return dates;
}

const char* const kPrograms[] = {"NSS", "Apple", "Microsoft", "Java"};
const char* const kDerivatives[] = {"Debian", "Ubuntu",  "AmazonLinux",
                                    "Alpine", "Android", "NodeJS"};

const PaperScenario& paper() {
  static const PaperScenario scenario = build_paper_scenario(kPaperSeed);
  return scenario;
}

TEST(TimelineReplay, AgreesAtEveryPaperSnapshotDate) {
  for (const char* program : kPrograms) {
    expect_replays_agree(paper().timeline(program),
                         snapshot_dates(paper().database(), program),
                         kPaperSeed, program);
  }
}

TEST(TimelineReplay, AgreesAtEveryPaperDerivativeEffectiveDate) {
  std::size_t inversions = 0;
  for (const char* derivative : kDerivatives) {
    const auto* history = paper().database().find(derivative);
    ASSERT_NE(history, nullptr) << derivative;
    expect_replays_agree(paper().timeline("NSS"),
                         effective_dates(*history, inversions), kPaperSeed,
                         std::string("NSS for ") + derivative);
  }
  // Jitter and Android's freeze make effective dates go backwards, which
  // is why a derivative replays NSS in effective-date order.
  EXPECT_GT(inversions, 0u);
}

TEST(TimelineReplay, AgreesAroundEveryPaperActionDate) {
  for (const char* program : kPrograms) {
    const Timeline& timeline = paper().timeline(program);
    expect_replays_agree(timeline, around_action_dates(timeline), kPaperSeed,
                         program);
  }
}

TEST(TimelineReplay, AgreesOnSimulatorTimelinesAtFiveSeeds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimulatorConfig config;
    config.seed = seed;
    const auto programs = simulate_programs(config);
    const auto eco = simulate_ecosystem(config);
    ASSERT_EQ(programs.timelines.size(),
              static_cast<std::size_t>(config.program_count));
    for (std::size_t p = 0; p < programs.timelines.size(); ++p) {
      const std::string name = "Prog" + std::to_string(p);
      expect_replays_agree(programs.timelines[p],
                           snapshot_dates(eco.database, name), seed,
                           name + " seed " + std::to_string(seed));
      expect_replays_agree(programs.timelines[p],
                           around_action_dates(programs.timelines[p]), seed,
                           name + " actions, seed " + std::to_string(seed));
    }
    std::size_t inversions = 0;
    for (const auto& derivative : eco.derivative_names) {
      expect_replays_agree(
          programs.timelines[0],
          effective_dates(*eco.database.find(derivative), inversions), seed,
          "Prog0 for " + derivative + ", seed " + std::to_string(seed));
    }
  }
}

// --- named cases -----------------------------------------------------------

RootSpec spec(const std::string& id) {
  RootSpec s;
  s.id = id;
  s.common_name = id + " CN";
  s.organization = "Org";
  s.not_before = Date::ymd(2005, 1, 1);
  s.not_after = Date::ymd(2035, 1, 1);
  return s;
}

Timeline with_specs(std::initializer_list<const char*> ids) {
  Timeline t;
  for (const char* id : ids) t.add_spec(spec(id));
  return t;
}

std::vector<std::string> ids_at(TimelineCursor& cursor, Date d) {
  cursor.advance_to(d);
  std::vector<std::string> ids;
  cursor.for_each_root([&](std::string_view id, const TrustEntry&) {
    ids.emplace_back(id);
  });
  return ids;
}

const TrustEntry* entry_of(const TimelineCursor& cursor, std::string_view id) {
  const TrustEntry* found = nullptr;
  cursor.for_each_root([&](std::string_view root, const TrustEntry& e) {
    if (root == id) found = &e;
  });
  return found;
}

std::vector<Date> years(int from, int to) {
  std::vector<Date> dates;
  for (int y = from; y <= to; ++y) dates.push_back(Date::ymd(y, 1, 1));
  return dates;
}

using Ids = std::vector<std::string>;

TEST(TimelineReplay, SameDayRemoveThenInclude) {
  Timeline t = with_specs({"a", "b", "c"});
  t.include(Date::ymd(2010, 1, 1), "a");
  t.include(Date::ymd(2010, 1, 1), "b");
  t.remove(Date::ymd(2012, 1, 1), "a");
  t.include(Date::ymd(2012, 1, 1), "a");
  // The other way round on one day: the root is gone by the day's end,
  // but its certificate was built.
  t.include(Date::ymd(2013, 1, 1), "c");
  t.remove(Date::ymd(2013, 1, 1), "c");
  expect_replays_agree(t, years(2009, 2014), 1, "same day");

  CertFactory f(1);
  TimelineCursor cursor(t, f);
  EXPECT_EQ(ids_at(cursor, Date::ymd(2011, 1, 1)), (Ids{"a", "b"}));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2012, 1, 1)), (Ids{"b", "a"}));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2013, 1, 1)), (Ids{"b", "a"}));
  EXPECT_EQ(f.built_count(), 3u);
}

TEST(TimelineReplay, ReIncludeAfterRemoveGoesToTheBack) {
  Timeline t = with_specs({"a", "b", "c"});
  t.include(Date::ymd(2010, 1, 1), "a");
  t.include(Date::ymd(2010, 6, 1), "b");
  t.include(Date::ymd(2011, 1, 1), "c");
  t.remove(Date::ymd(2012, 1, 1), "a");
  t.include(Date::ymd(2014, 1, 1), "a");
  // Re-including a present root resets its trust in place.
  t.include(Date::ymd(2015, 1, 1), "b", {TrustPurpose::kEmailProtection});
  expect_replays_agree(t, years(2009, 2016), 1, "re-include");

  CertFactory f(1);
  TimelineCursor cursor(t, f);
  EXPECT_EQ(ids_at(cursor, Date::ymd(2011, 6, 1)), (Ids{"a", "b", "c"}));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2013, 1, 1)), (Ids{"b", "c"}));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2014, 1, 1)), (Ids{"b", "c", "a"}));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2015, 1, 1)), (Ids{"b", "c", "a"}));
  const TrustEntry* b = entry_of(cursor, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->is_tls_anchor());
  EXPECT_TRUE(b->is_anchor_for(TrustPurpose::kEmailProtection));
}

TEST(TimelineReplay, ServerDistrustAfterOnPresentAndAbsentRoots) {
  Timeline t = with_specs({"a", "b"});
  t.include(Date::ymd(2010, 1, 1), "a");
  t.set_server_distrust_after(Date::ymd(2011, 1, 1), "a",
                              Date::ymd(2010, 6, 1));
  // Absent: not yet included, then after its removal.
  t.set_server_distrust_after(Date::ymd(2011, 1, 1), "b",
                              Date::ymd(2010, 6, 1));
  t.include(Date::ymd(2012, 1, 1), "b");
  t.remove(Date::ymd(2013, 1, 1), "b");
  t.set_server_distrust_after(Date::ymd(2014, 1, 1), "b",
                              Date::ymd(2013, 6, 1));
  t.include(Date::ymd(2015, 1, 1), "b");
  expect_replays_agree(t, years(2009, 2016), 1, "distrust-after");

  CertFactory f(1);
  TimelineCursor cursor(t, f);
  EXPECT_EQ(ids_at(cursor, Date::ymd(2011, 1, 1)), (Ids{"a"}));
  EXPECT_EQ(entry_of(cursor, "a")
                ->trust_for(TrustPurpose::kServerAuth)
                .distrust_after,
            Date::ymd(2010, 6, 1));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2012, 1, 1)), (Ids{"a", "b"}));
  EXPECT_FALSE(entry_of(cursor, "b")->is_partially_distrusted_tls());
  EXPECT_EQ(ids_at(cursor, Date::ymd(2015, 1, 1)), (Ids{"a", "b"}));
  EXPECT_FALSE(entry_of(cursor, "b")->is_partially_distrusted_tls());
}

TEST(TimelineReplay, DistrustPurposesOnPresentAndAbsentRoots) {
  Timeline t = with_specs({"a", "b"});
  t.include(Date::ymd(2010, 1, 1), "a",
            {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
  t.distrust(Date::ymd(2011, 1, 1), "a", {TrustPurpose::kServerAuth});
  t.distrust(Date::ymd(2011, 1, 1), "b", {TrustPurpose::kServerAuth});
  t.include(Date::ymd(2012, 1, 1), "b");
  expect_replays_agree(t, years(2009, 2013), 1, "distrust purposes");

  CertFactory f(1);
  TimelineCursor cursor(t, f);
  EXPECT_EQ(ids_at(cursor, Date::ymd(2011, 1, 1)), (Ids{"a"}));
  EXPECT_EQ(entry_of(cursor, "a")->trust_for(TrustPurpose::kServerAuth).level,
            TrustLevel::kDistrusted);
  EXPECT_TRUE(
      entry_of(cursor, "a")->is_anchor_for(TrustPurpose::kEmailProtection));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2012, 1, 1)), (Ids{"a", "b"}));
  EXPECT_TRUE(entry_of(cursor, "b")->is_tls_anchor());
}

TEST(TimelineReplay, DateBeforeTheFirstAction) {
  Timeline t = with_specs({"a"});
  t.include(Date::ymd(2010, 1, 1), "a");
  expect_replays_agree(t, {Date::ymd(2000, 1, 1), Date::ymd(2009, 12, 31)}, 1,
                       "before");

  CertFactory f(1);
  TimelineCursor cursor(t, f);
  EXPECT_TRUE(ids_at(cursor, Date::ymd(2009, 12, 31)).empty());
  EXPECT_EQ(f.built_count(), 0u);
}

TEST(TimelineReplay, DateAfterTheLastAction) {
  Timeline t = with_specs({"a", "b"});
  t.include(Date::ymd(2010, 1, 1), "a");
  t.include(Date::ymd(2011, 1, 1), "b");
  t.remove(Date::ymd(2012, 1, 1), "a");
  expect_replays_agree(t, {Date::ymd(2030, 1, 1), Date::ymd(2030, 1, 1),
                           Date::ymd(2040, 1, 1)},
                       1, "after");

  CertFactory f(1);
  TimelineCursor cursor(t, f);
  EXPECT_EQ(ids_at(cursor, Date::ymd(2030, 1, 1)), (Ids{"b"}));
  EXPECT_EQ(ids_at(cursor, Date::ymd(2040, 1, 1)), (Ids{"b"}));
  EXPECT_EQ(f.built_count(), 2u);
}

}  // namespace
}  // namespace rs::synth
