// CertInterner unit tests — the determinism contract (IDs in sorted-digest
// order, independent of input order), lookup symmetry, materialization,
// database universe construction — and MembershipTable unit tests: one row
// per (provider, snapshot, scope), equal-dated snapshots kept as separate
// rows, loud failures for a mismatched history or universe.  Pooled
// builds and added lanes are checked against the referee in
// tests/analysis/intern_equivalence_test.cpp and by study_test.cpp.
#include "src/store/interner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/store/database.h"
#include "src/store/membership.h"
#include "src/store/trust.h"
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
  EXPECT_TRUE(interner.materialize(IdSet{}).empty());
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
  const FingerprintSet original(std::move(digests));
  IdSet ids;
  for (auto it = original.items().rbegin(); it != original.items().rend();
       ++it) {
    ids.insert(*interner.id_of(*it));  // any insertion order
  }
  EXPECT_TRUE(interner.materialize(ids) == original);
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
}

}  // namespace
}  // namespace rs::store
