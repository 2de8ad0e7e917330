// CertInterner unit tests — the determinism contract (IDs in sorted-digest
// order, independent of input order), lookup symmetry, the sorted-digest
// order of IdSet::ids() walked through digest_of, database universe
// construction, independent of whether snapshots share Certificate
// objects — and MembershipTable unit tests: one row
// per (provider, snapshot, scope), equal-dated snapshots kept as separate
// rows, loud failures for a mismatched history or universe.  Pooled
// builds and added lanes are checked against the referee in
// tests/analysis/intern_equivalence_test.cpp and by study_test.cpp.
#include "src/store/interner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/crypto/prng.h"
#include "src/exec/thread_pool.h"
#include "src/store/database.h"
#include "src/store/membership.h"
#include "src/store/trust.h"
#include "src/synth/paper_scenario.h"
#include "src/x509/builder.h"

namespace rs::store {
namespace {

using rs::crypto::Sha256Digest;
using rs::util::Date;

Sha256Digest digest_from(std::uint64_t value) {
  Sha256Digest d{};
  for (std::size_t i = 0; i < 8; ++i) {
    d[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return d;
}

TEST(CertInterner, IdsFollowSortedDigestOrder) {
  const std::vector<Sha256Digest> digests = {
      digest_from(30), digest_from(10), digest_from(20), digest_from(10)};
  const CertInterner interner{std::vector<Sha256Digest>(digests)};
  ASSERT_EQ(interner.size(), 3u);  // deduplicated
  // digest_from writes little-endian into the leading bytes, so digest
  // byte-order equals value order here.
  EXPECT_EQ(interner.id_of(digest_from(10)), std::uint32_t{0});
  EXPECT_EQ(interner.id_of(digest_from(20)), std::uint32_t{1});
  EXPECT_EQ(interner.id_of(digest_from(30)), std::uint32_t{2});
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_EQ(interner.id_of(interner.digest_of(id)), id);
  }
  EXPECT_EQ(interner.id_of(digest_from(99)), std::nullopt);
}

TEST(CertInterner, DeterministicAcrossInputOrder) {
  std::vector<Sha256Digest> digests;
  for (std::uint64_t v = 0; v < 64; ++v) digests.push_back(digest_from(v * 7));
  const CertInterner forward{std::vector<Sha256Digest>(digests)};
  std::reverse(digests.begin(), digests.end());
  const CertInterner backward{std::vector<Sha256Digest>(digests)};
  ASSERT_EQ(forward.size(), backward.size());
  for (std::uint32_t id = 0; id < forward.size(); ++id) {
    EXPECT_EQ(forward.digest_of(id), backward.digest_of(id));
  }
}

TEST(CertInterner, EmptyUniverseAndEmptySet) {
  const CertInterner interner;
  EXPECT_TRUE(interner.empty());
  EXPECT_EQ(interner.id_of(digest_from(9)), std::nullopt);
  EXPECT_TRUE(IdSet{}.ids().empty());
  const CertInterner built{std::vector<Sha256Digest>{}};
  EXPECT_TRUE(built.empty());
  Sha256Digest ones;
  ones.fill(0xFF);
  for (const auto& probe : {Sha256Digest{}, digest_from(9), ones}) {
    EXPECT_EQ(interner.id_of(probe), std::nullopt);
    EXPECT_EQ(built.id_of(probe), std::nullopt);
  }
}

// --- id_of against a plain binary search over the sorted universe ----------

// The referee: std::lower_bound over the whole sorted array.
std::optional<std::uint32_t> searched_id(const CertInterner& interner,
                                         const Sha256Digest& fp) {
  const auto& all = interner.digests();
  const auto it = std::lower_bound(all.begin(), all.end(), fp);
  if (it == all.end() || *it != fp) return std::nullopt;
  return static_cast<std::uint32_t>(it - all.begin());
}

Sha256Digest random_digest(rs::crypto::Prng& rng) {
  Sha256Digest d;
  for (auto& byte : d) byte = static_cast<std::uint8_t>(rng.next());
  return d;
}

// Every member, plus probes below the first digest, between neighbours
// (a member with its last byte moved by one) and above the last.
void expect_lookups_match_search(const CertInterner& interner,
                                 rs::crypto::Prng& rng) {
  const auto& all = interner.digests();
  for (std::uint32_t id = 0; id < all.size(); ++id) {
    ASSERT_EQ(interner.id_of(all[id]), id);
  }
  std::vector<Sha256Digest> probes = {Sha256Digest{}};
  Sha256Digest ones;
  ones.fill(0xFF);
  probes.push_back(ones);
  for (const auto& d : all) {
    for (const int step : {-1, 1}) {
      Sha256Digest near = d;
      near[31] = static_cast<std::uint8_t>(near[31] + step);
      probes.push_back(near);
    }
  }
  for (int i = 0; i < 256; ++i) probes.push_back(random_digest(rng));
  if (!all.empty()) {
    probes.push_back(all.front());
    probes.back()[31] = 0;  // at or below the first digest
  }
  for (const auto& probe : probes) {
    ASSERT_EQ(interner.id_of(probe), searched_id(interner, probe));
  }
}

TEST(CertInterner, IdOfAgreesWithBinarySearchOnRandomUniverses) {
  rs::crypto::Prng rng(20211102);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 100u, 1000u, 5000u}) {
    SCOPED_TRACE("universe " + std::to_string(n));
    std::vector<Sha256Digest> digests;
    for (std::size_t i = 0; i < n; ++i) digests.push_back(random_digest(rng));
    const CertInterner interner{std::move(digests)};
    ASSERT_EQ(interner.size(), n);
    expect_lookups_match_search(interner, rng);
  }
}

TEST(CertInterner, IdOfAgreesWithBinarySearchOnSharedPrefixUniverses) {
  // Universes whose digests share their first four bytes all fall into one
  // radix bucket; the lookup must stay exact.  The 0x00.. and 0xFF..
  // prefixes sit in the first and last bucket.
  rs::crypto::Prng rng(4242);
  for (const std::uint8_t lead : std::vector<std::uint8_t>{0x00, 0x5A, 0xFF}) {
    for (const std::size_t n : {2u, 64u, 3000u}) {
      SCOPED_TRACE("prefix " + std::to_string(lead) + ", universe " +
                   std::to_string(n));
      std::vector<Sha256Digest> digests;
      for (std::size_t i = 0; i < n; ++i) {
        auto d = random_digest(rng);
        d[0] = d[1] = d[2] = d[3] = lead;
        digests.push_back(d);
      }
      const CertInterner interner{std::move(digests)};
      ASSERT_EQ(interner.size(), n);
      expect_lookups_match_search(interner, rng);
      // Neighbouring prefixes miss.
      auto below = interner.digests().front();
      below[3] = static_cast<std::uint8_t>(lead - 1);
      auto above = interner.digests().back();
      above[3] = static_cast<std::uint8_t>(lead + 1);
      EXPECT_EQ(interner.id_of(below), searched_id(interner, below));
      EXPECT_EQ(interner.id_of(above), searched_id(interner, above));
    }
  }
}

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Intern Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TEST(CertInterner, MaterializeRoundTripsSortedOrder) {
  std::vector<Sha256Digest> digests;
  for (std::uint64_t v = 0; v < 40; ++v) digests.push_back(digest_from(v * 3));
  const CertInterner interner{std::vector<Sha256Digest>(digests)};
  IdSet ids;
  for (auto it = digests.rbegin(); it != digests.rend(); ++it) {
    ids.insert(*interner.id_of(*it));  // any insertion order
  }
  std::vector<Sha256Digest> walked;
  for (const std::uint32_t id : ids.ids()) {
    walked.push_back(interner.digest_of(id));
  }
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(walked, digests);
}

Snapshot snap(const std::string& provider, Date date,
              std::vector<TrustEntry> entries) {
  Snapshot s;
  s.provider = provider;
  s.date = date;
  s.entries = std::move(entries);
  return s;
}

std::vector<std::uint32_t> ids(const CertInterner& interner,
                               std::initializer_list<std::uint64_t> seeds) {
  std::vector<std::uint32_t> out;
  for (const auto seed : seeds) {
    out.push_back(*interner.id_of(make_cert(seed)->sha256()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Provider A: a TLS root, an email-only root, and a root trusted for TLS
// and code signing, then a same-date re-release that drops the email-only
// root.  Provider B shares the TLS root and adds one of its own.
StoreDatabase make_db() {
  StoreDatabase db;
  ProviderHistory a("A");
  const std::vector<TrustEntry> full = {
      make_tls_anchor(make_cert(1)),
      make_anchor_for(make_cert(2), {TrustPurpose::kEmailProtection}),
      make_anchor_for(make_cert(3), {TrustPurpose::kServerAuth,
                                     TrustPurpose::kCodeSigning})};
  a.add(snap("A", Date::ymd(2020, 1, 1), full));
  a.add(snap("A", Date::ymd(2020, 1, 1), {full[0], full[2]}));
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2021, 1, 1),
             {full[0], make_tls_anchor(make_cert(4))}));
  db.add(std::move(b));
  return db;
}

TEST(CertInterner, FromDatabaseCoversEveryEntry) {
  const StoreDatabase db = make_db();
  const CertInterner interner = CertInterner::from_database(db);
  EXPECT_EQ(interner.size(), 4u);
  // Every entry of every snapshot, whatever its trust bits, has an ID.
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& entry : snap.entries) {
        EXPECT_TRUE(interner.id_of(entry.certificate->sha256()).has_value());
      }
    }
  }
}

TEST(CertInterner, FromDatabaseIgnoresObjectSharing) {
  // The paper scenario shares one Certificate object per root across its
  // snapshots; the deep copy gives every entry its own object with equal
  // DER.  The universe and its order are the same either way.
  const auto scenario = rs::synth::build_paper_scenario();
  const StoreDatabase& shared = scenario.database();
  StoreDatabase deep;
  std::size_t entries = 0;
  for (const auto& [name, history] : shared.histories()) {
    ProviderHistory copy(name);
    for (Snapshot s : history.snapshots()) {
      for (auto& entry : s.entries) {
        entry.certificate = std::make_shared<const rs::x509::Certificate>(
            *entry.certificate);
        ++entries;
      }
      copy.add(std::move(s));
    }
    deep.add(std::move(copy));
  }
  const CertInterner from_shared = CertInterner::from_database(shared);
  const CertInterner from_deep = CertInterner::from_database(deep);
  EXPECT_GT(entries, 10 * from_shared.size());
  EXPECT_EQ(from_shared.digests(), from_deep.digests());
  EXPECT_TRUE(std::is_sorted(from_shared.digests().begin(),
                             from_shared.digests().end()));

  // The lanes look an ID up once per certificate object: the shared
  // database has one object per root, the deep copy one per entry.  Both
  // give the same rows, and every row is the single-snapshot rows_of.
  const auto shared_table = MembershipTable::build(shared);
  const auto deep_table = MembershipTable::build(deep);
  for (const auto& [name, history] : shared.histories()) {
    const auto& shared_lane = shared_table.lane(history);
    const auto& deep_lane = deep_table.lane(*deep.find(name));
    ASSERT_EQ(shared_lane.size(), history.size()) << name;
    ASSERT_EQ(deep_lane.size(), history.size()) << name;
    for (std::size_t k = 0; k < history.size(); ++k) {
      const ScopeSets single =
          MembershipTable::rows_of(history.snapshots()[k], from_shared);
      for (std::size_t s = 0; s < kScopeCount; ++s) {
        EXPECT_EQ(shared_lane[k][s], deep_lane[k][s])
            << name << " row " << k << " scope " << s;
        EXPECT_EQ(shared_lane[k][s], single[s])
            << name << " row " << k << " scope " << s;
      }
    }
  }
}

TEST(MembershipTable, OneRowPerSnapshotAndScope) {
  const auto db = make_db();
  const auto table = MembershipTable::build(db);
  const auto& interner = table.interner();
  const auto& a = table.lane(*db.find("A"));
  ASSERT_EQ(a.size(), 2u);  // equal-dated snapshots stay separate rows
  EXPECT_EQ(in_scope(a[0], Scope::kTls).ids(), ids(interner, {1, 3}));
  EXPECT_EQ(in_scope(a[0], Scope::kEmail).ids(), ids(interner, {2}));
  EXPECT_EQ(in_scope(a[0], Scope::kCode).ids(), ids(interner, {3}));
  EXPECT_EQ(in_scope(a[0], Scope::kPresent).ids(), ids(interner, {1, 2, 3}));
  EXPECT_EQ(in_scope(a[1], Scope::kPresent).ids(), ids(interner, {1, 3}));
  EXPECT_TRUE(in_scope(a[1], Scope::kEmail).empty());
  const auto& b = table.lane(*db.find("B"));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(in_scope(b[0], Scope::kTls).ids(), ids(interner, {1, 4}));
}

TEST(MembershipTable, MismatchedHistoryOrUniverseThrows) {
  const auto db = make_db();
  const auto table = MembershipTable::build(db);
  EXPECT_THROW((void)table.lane(ProviderHistory("Ghost")), std::logic_error);
  ProviderHistory longer = *db.find("B");
  longer.add(snap("B", Date::ymd(2022, 1, 1), {}));
  EXPECT_THROW((void)table.lane(longer), std::logic_error);

  const auto outsider =
      snap("A", Date::ymd(2020, 1, 1), {make_tls_anchor(make_cert(99))});
  EXPECT_THROW((void)MembershipTable::rows_of(outsider, table.interner()),
               std::logic_error);

  // A lane build over a universe that misses one of the database's
  // certificates throws too, inline and on a pool.
  std::vector<Sha256Digest> partial = table.interner().digests();
  partial.erase(partial.begin() + 1);
  EXPECT_THROW((void)MembershipTable::build(db, CertInterner(partial)),
               std::logic_error);
  rs::exec::ThreadPool pool(2);
  EXPECT_THROW((void)MembershipTable::build(db, CertInterner(partial), &pool),
               std::logic_error);
}

}  // namespace
}  // namespace rs::store
