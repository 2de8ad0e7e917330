#include "src/analysis/jaccard.h"

#include <gtest/gtest.h>

#include "src/store/trust.h"
#include "src/x509/builder.h"

namespace rs::analysis {
namespace {

using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::store::TrustEntry;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Jac Root " + std::to_string(seed));
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

StoreDatabase two_provider_db() {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2019, 1, 1), {1, 2, 3}));
  a.add(snap("A", Date::ymd(2020, 1, 1), {1, 2, 3, 4}));
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2019, 6, 1), {3, 4, 5}));
  db.add(std::move(b));
  return db;
}

// The matrix over a membership table built for `db` alone.
DistanceMatrix matrix(const StoreDatabase& db,
                      const JaccardOptions& options = {}) {
  return jaccard_matrix(db, rs::store::MembershipTable::build(db), options);
}

TEST(Jaccard, MatrixShapeAndSymmetry) {
  const auto dist = matrix(two_provider_db());
  ASSERT_EQ(dist.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(dist.at(i, i), 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(dist.at(i, j), dist.at(j, i));
    }
  }
}

TEST(Jaccard, KnownDistances) {
  const auto dist = matrix(two_provider_db());
  // Labels are in provider order (A snapshots first, then B).
  EXPECT_EQ(dist.labels[0].provider, "A");
  EXPECT_EQ(dist.labels[2].provider, "B");
  // A@2019 {1,2,3} vs A@2020 {1,2,3,4}: 1 - 3/4.
  EXPECT_NEAR(dist.at(0, 1), 0.25, 1e-12);
  // A@2019 {1,2,3} vs B {3,4,5}: 1 - 1/5.
  EXPECT_NEAR(dist.at(0, 2), 0.8, 1e-12);
}

TEST(Jaccard, DateWindowFilters) {
  JaccardOptions opts;
  opts.min_date = Date::ymd(2019, 3, 1);
  const auto dist = matrix(two_provider_db(), opts);
  EXPECT_EQ(dist.size(), 2u);  // A@2019-01 excluded
}

TEST(Jaccard, SetKindDistinguishesTrustAwareness) {
  StoreDatabase db;
  ProviderHistory a("A");
  a.add(snap("A", Date::ymd(2020, 1, 1), {1}, {9}));
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2020, 1, 1), {1}));
  db.add(std::move(b));

  JaccardOptions all;
  all.set_kind = SetKind::kAllCertificates;
  EXPECT_NEAR(matrix(db, all).at(0, 1), 0.5, 1e-12);

  JaccardOptions tls;
  tls.set_kind = SetKind::kTlsAnchors;
  EXPECT_NEAR(matrix(db, tls).at(0, 1), 0.0, 1e-12);
}

TEST(Jaccard, SubsamplingCapsPerProvider) {
  StoreDatabase db;
  ProviderHistory a("A");
  for (int m = 0; m < 24; ++m) {
    a.add(snap("A", Date::ymd(2018, 1, 1) + m * 30, {1, 2}));
  }
  db.add(std::move(a));
  JaccardOptions opts;
  opts.max_per_provider = 5;
  const auto dist = matrix(db, opts);
  EXPECT_EQ(dist.size(), 5u);
  // Ends are kept.
  EXPECT_EQ(dist.labels.front().provider_index, 0u);
  EXPECT_EQ(dist.labels.back().provider_index, 23u);
}

// Regression: max_per_provider == 1 used to compute stride =
// (idx.size()-1) / (max_per_provider-1), dividing by zero; the inf stride
// then hit UB on the float->size_t cast.  A single slot now keeps the most
// recent in-window snapshot per provider.
TEST(Jaccard, SubsampleToSingleSnapshotKeepsNewest) {
  StoreDatabase db;
  ProviderHistory a("A");
  for (int m = 0; m < 12; ++m) {
    a.add(snap("A", Date::ymd(2018, 1, 1) + m * 30, {1, 2}));
  }
  db.add(std::move(a));
  ProviderHistory b("B");
  b.add(snap("B", Date::ymd(2019, 1, 1), {2, 3}));
  b.add(snap("B", Date::ymd(2019, 6, 1), {3, 4}));
  db.add(std::move(b));

  JaccardOptions opts;
  opts.max_per_provider = 1;
  const auto dist = matrix(db, opts);
  ASSERT_EQ(dist.size(), 2u);  // one snapshot per provider
  EXPECT_EQ(dist.labels[0].provider, "A");
  EXPECT_EQ(dist.labels[0].provider_index, 11u);  // newest of A's 12
  EXPECT_EQ(dist.labels[1].provider, "B");
  EXPECT_EQ(dist.labels[1].provider_index, 1u);   // newest of B's 2
}

TEST(Jaccard, EmptyDatabase) {
  const auto dist = matrix(StoreDatabase{});
  EXPECT_EQ(dist.size(), 0u);
  EXPECT_TRUE(dist.values.empty());
}

// Regression: DistanceMatrix::at used to index `values` unchecked, so an
// out-of-range row/column silently read adjacent memory (or past the end).
// It now carries a debug bounds assert; tests build with assertions enabled
// (-UNDEBUG), so the violation must abort.
TEST(JaccardDeathTest, AtOutOfRangeAssertsInDebug) {
#ifndef NDEBUG
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto dist = matrix(two_provider_db());  // 3x3
  EXPECT_DEATH((void)dist.at(3, 0), "out of range");
  EXPECT_DEATH((void)dist.at(0, 3), "out of range");
  EXPECT_DEATH((void)dist.at(17, 17), "out of range");
#else
  GTEST_SKIP() << "assertions disabled (NDEBUG)";
#endif
}

}  // namespace
}  // namespace rs::analysis
