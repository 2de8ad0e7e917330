#include "src/analysis/exclusive.h"

#include <gtest/gtest.h>

#include "src/store/trust.h"
#include "src/x509/builder.h"

namespace rs::analysis {
namespace {

using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Excl Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(const std::string& provider, Date date,
              std::initializer_list<int> tls_ids,
              std::initializer_list<int> email_ids = {}) {
  Snapshot s;
  s.provider = provider;
  s.date = date;
  for (int id : tls_ids) {
    s.entries.push_back(
        rs::store::make_tls_anchor(make_cert(static_cast<std::uint64_t>(id))));
  }
  for (int id : email_ids) {
    s.entries.push_back(rs::store::make_anchor_for(
        make_cert(static_cast<std::uint64_t>(id)),
        {rs::store::TrustPurpose::kEmailProtection}));
  }
  return s;
}

// Exclusive roots over a membership table built for `db` alone.
std::vector<ExclusiveSet> exclusive_roots(
    const StoreDatabase& db, const std::vector<std::string>& programs) {
  return rs::analysis::exclusive_roots(
      db, rs::store::MembershipTable::build(db), programs);
}

TEST(Exclusive, BasicExclusivity) {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2020, 1, 1), {1, 2}));
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2020, 1, 1), {1, 3}));
  db.add(std::move(b));

  const auto result = exclusive_roots(db, {"A", "B"});
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].program, "A");
  EXPECT_EQ(result[0].roots.size(), 1u);  // root 2
  EXPECT_EQ(result[1].roots.size(), 1u);  // root 3
}

TEST(Exclusive, HistoricalTrustElsewhereKillsExclusivity) {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2020, 1, 1), {1}));
  db.add(std::move(a));
  // B trusted root 1 in 2018 but dropped it: still not exclusive to A.
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2018, 1, 1), {1}));
  b.add(snap("B", Date::ymd(2020, 1, 1), {2}));
  db.add(std::move(b));

  const auto result = exclusive_roots(db, {"A", "B"});
  EXPECT_TRUE(result[0].roots.empty());     // A's root 1 was ever-B
  EXPECT_EQ(result[1].roots.size(), 1u);    // B's root 2 is exclusive
}

TEST(Exclusive, EmailTrustElsewhereDoesNotKillTlsExclusivity) {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2020, 1, 1), {1}));
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2020, 1, 1), {}, {1}));  // email trust only
  db.add(std::move(b));

  const auto result = exclusive_roots(db, {"A", "B"});
  EXPECT_EQ(result[0].roots.size(), 1u);
}

TEST(Exclusive, OnlyLatestSnapshotCounts) {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2019, 1, 1), {1, 5}));
  a.add(snap("A", Date::ymd(2020, 1, 1), {1}));  // 5 removed
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2020, 1, 1), {1}));
  db.add(std::move(b));

  const auto result = exclusive_roots(db, {"A", "B"});
  // Root 5 would be exclusive, but it is gone from the latest snapshot.
  EXPECT_TRUE(result[0].roots.empty());
}

TEST(Exclusive, MissingProvidersSkipped) {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2020, 1, 1), {1}));
  db.add(std::move(a));
  const auto result = exclusive_roots(db, {"A", "Ghost"});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].program, "A");
}

}  // namespace
}  // namespace rs::analysis
