#include "src/store/snapshot.h"

#include <gtest/gtest.h>

#include "src/store/membership.h"
#include "src/x509/builder.h"

namespace rs::store {
namespace {

using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(
    std::uint64_t seed, Date not_before = Date::ymd(2010, 1, 1),
    Date not_after = Date::ymd(2030, 1, 1),
    rs::x509::SignatureScheme scheme = rs::x509::SignatureScheme::kSha256Rsa,
    unsigned bits = 2048) {
  rs::x509::Name n;
  n.add_common_name("Snap Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder()
          .subject(n)
          .key_seed(seed)
          .not_before(not_before)
          .not_after(not_after)
          .signature_scheme(scheme)
          .rsa_bits(bits)
          .build());
}

Snapshot snapshot_with(std::vector<TrustEntry> entries, Date date) {
  Snapshot s;
  s.provider = "Test";
  s.date = date;
  s.entries = std::move(entries);
  return s;
}

TEST(Snapshot, FingerprintSetsByPurpose) {
  auto tls = make_tls_anchor(make_cert(1));
  auto email = make_anchor_for(make_cert(2), {TrustPurpose::kEmailProtection});
  auto both = make_anchor_for(
      make_cert(3), {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
  const Snapshot s =
      snapshot_with({tls, email, both}, Date::ymd(2020, 1, 1));

  // The snapshot's membership row holds one set per scope.
  const CertInterner interner({tls.certificate->sha256(),
                               email.certificate->sha256(),
                               both.certificate->sha256()});
  const auto row = MembershipTable::rows_of(s, interner);
  EXPECT_EQ(in_scope(row, Scope::kPresent).size(), 3u);
  EXPECT_EQ(in_scope(row, Scope::kTls).size(), 2u);
  EXPECT_EQ(in_scope(row, Scope::kEmail).size(), 2u);
  EXPECT_EQ(in_scope(row, Scope::kCode).size(), 0u);
}

TEST(Snapshot, FindByFingerprint) {
  auto cert = make_cert(7);
  const Snapshot s =
      snapshot_with({make_tls_anchor(cert)}, Date::ymd(2020, 1, 1));
  ASSERT_NE(s.find(cert->sha256()), nullptr);
  EXPECT_EQ(s.find(make_cert(8)->sha256()), nullptr);
}

TEST(Snapshot, ExpiredCountUsesSnapshotDate) {
  auto expired = make_cert(10, Date::ymd(2000, 1, 1), Date::ymd(2015, 1, 1));
  auto valid = make_cert(11);
  const Snapshot s = snapshot_with(
      {make_tls_anchor(expired), make_tls_anchor(valid)}, Date::ymd(2020, 6, 1));
  EXPECT_EQ(s.expired_count(), 1u);
  const Snapshot earlier = snapshot_with(
      {make_tls_anchor(expired), make_tls_anchor(valid)}, Date::ymd(2014, 6, 1));
  EXPECT_EQ(earlier.expired_count(), 0u);
}

TEST(Snapshot, HygieneCountersOnlyCountTlsAnchors) {
  auto md5_tls = make_tls_anchor(make_cert(
      20, Date::ymd(2000, 1, 1), Date::ymd(2030, 1, 1),
      rs::x509::SignatureScheme::kMd5Rsa));
  auto md5_email = make_anchor_for(
      make_cert(21, Date::ymd(2000, 1, 1), Date::ymd(2030, 1, 1),
                rs::x509::SignatureScheme::kMd5Rsa),
      {TrustPurpose::kEmailProtection});
  auto weak = make_tls_anchor(make_cert(
      22, Date::ymd(2005, 1, 1), Date::ymd(2030, 1, 1),
      rs::x509::SignatureScheme::kSha1Rsa, 1024));
  const Snapshot s =
      snapshot_with({md5_tls, md5_email, weak}, Date::ymd(2015, 1, 1));
  EXPECT_EQ(s.md5_signed_count(), 1u);  // email-only MD5 not counted
  EXPECT_EQ(s.weak_rsa_count(), 1u);
}

TEST(ProviderHistory, AddKeepsDateOrder) {
  ProviderHistory h("P");
  h.add(snapshot_with({}, Date::ymd(2020, 5, 1)));
  h.add(snapshot_with({}, Date::ymd(2019, 1, 1)));
  h.add(snapshot_with({}, Date::ymd(2020, 1, 1)));
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.front().date, Date::ymd(2019, 1, 1));
  EXPECT_EQ(h.back().date, Date::ymd(2020, 5, 1));
  EXPECT_EQ(h.first_date(), Date::ymd(2019, 1, 1));
  EXPECT_EQ(h.last_date(), Date::ymd(2020, 5, 1));
}

TEST(ProviderHistory, AtReturnsLatestNotAfter) {
  ProviderHistory h("P");
  h.add(snapshot_with({}, Date::ymd(2019, 1, 1)));
  h.add(snapshot_with({}, Date::ymd(2020, 1, 1)));
  EXPECT_EQ(h.at(Date::ymd(2019, 6, 1))->date, Date::ymd(2019, 1, 1));
  EXPECT_EQ(h.at(Date::ymd(2020, 1, 1))->date, Date::ymd(2020, 1, 1));
  EXPECT_EQ(h.at(Date::ymd(2025, 1, 1))->date, Date::ymd(2020, 1, 1));
  EXPECT_EQ(h.at(Date::ymd(2018, 1, 1)), nullptr);
}

TEST(ProviderHistory, UniqueCertificateCounts) {
  auto a = make_cert(30);
  auto b = make_cert(31);
  ProviderHistory h("P");
  h.add(snapshot_with({make_tls_anchor(a)}, Date::ymd(2019, 1, 1)));
  h.add(snapshot_with({make_tls_anchor(a), make_tls_anchor(b)},
                      Date::ymd(2020, 1, 1)));
  h.add(snapshot_with(
      {make_anchor_for(b, {TrustPurpose::kEmailProtection})},
      Date::ymd(2021, 1, 1)));
  // Distinct certificates ever present / ever TLS-trusted are the ORs of
  // the history's membership rows.
  StoreDatabase db;
  db.add(h);
  const auto table = MembershipTable::build(db);
  IdSet ever_present, ever_tls;
  for (const auto& row : table.lane(h)) {
    ever_present |= in_scope(row, Scope::kPresent);
    ever_tls |= in_scope(row, Scope::kTls);
  }
  EXPECT_EQ(ever_present.size(), 2u);
  EXPECT_EQ(ever_tls.size(), 2u);  // b was a TLS anchor in 2020
}

}  // namespace
}  // namespace rs::store
