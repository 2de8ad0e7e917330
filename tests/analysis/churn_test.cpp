#include "src/analysis/churn.h"

#include <gtest/gtest.h>

#include "src/store/membership.h"
#include "src/store/trust.h"
#include "src/x509/builder.h"

namespace rs::analysis {
namespace {

using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Churn Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(Date date, std::initializer_list<int> ids) {
  Snapshot s;
  s.provider = "P";
  s.date = date;
  for (int id : ids) {
    s.entries.push_back(
        rs::store::make_tls_anchor(make_cert(static_cast<std::uint64_t>(id))));
  }
  return s;
}

/// churn_series over `h`, read through a membership table of its own.
ChurnSeries churn_of(const ProviderHistory& h) {
  rs::store::StoreDatabase db;
  db.add(h);
  return churn_series(h, rs::store::MembershipTable::build(db));
}

TEST(Churn, FirstSnapshotHasZeroChange) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1, 2, 3}));
  const auto series = churn_of(h);
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].total_change(), 0u);
  EXPECT_EQ(series.points[0].change_fraction, 0.0);
}

TEST(Churn, AddsAndRemovesCounted) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1, 2, 3}));
  h.add(snap(Date::ymd(2020, 2, 1), {2, 3, 4, 5}));
  const auto series = churn_of(h);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[1].added, 2u);    // 4, 5
  EXPECT_EQ(series.points[1].removed, 1u);  // 1
  // union = {1..5} = 5; change = 3/5.
  EXPECT_DOUBLE_EQ(series.points[1].change_fraction, 0.6);
}

TEST(Churn, UnchangedSnapshotsAreZero) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1, 2}));
  h.add(snap(Date::ymd(2020, 2, 1), {1, 2}));
  const auto series = churn_of(h);
  EXPECT_EQ(series.points[1].total_change(), 0u);
}

TEST(Churn, EmptyHistory) {
  const auto series = churn_of(ProviderHistory("P"));
  EXPECT_TRUE(series.points.empty());
  EXPECT_EQ(series.mean_change_fraction, 0.0);
}

TEST(ChurnOutliers, DetectsBurstAmongQuietSnapshots) {
  ProviderHistory h("P");
  // Mostly stable store of 30 roots with one massive batch change.
  std::vector<int> base;
  for (int i = 0; i < 30; ++i) base.push_back(i);
  auto make = [&](Date d, const std::vector<int>& ids) {
    Snapshot s;
    s.provider = "P";
    s.date = d;
    for (int id : ids) {
      s.entries.push_back(rs::store::make_tls_anchor(
          make_cert(static_cast<std::uint64_t>(id))));
    }
    return s;
  };
  Date d = Date::ymd(2015, 1, 1);
  for (int m = 0; m < 10; ++m) {
    auto ids = base;
    if (m >= 1) ids[29] = 100 + m;  // one root churns per snapshot
    if (m >= 6) {
      // The outlier at m == 6: replace 20 roots in one batch (the
      // "Apple Feb 2014" shape); later snapshots keep the new set.
      for (int k = 0; k < 20; ++k) ids[static_cast<std::size_t>(k)] = 200 + k;
    }
    h.add(make(d, ids));
    d = d.add_months(2);
  }
  const auto outliers = find_outliers({churn_of(h)}, 2.0, 8);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0].provider, "P");
  EXPECT_EQ(outliers[0].point.date, Date::ymd(2016, 1, 1));  // m == 6
  EXPECT_GE(outliers[0].point.total_change(), 40u);
  EXPECT_GT(outliers[0].score, 2.0);
}

TEST(ChurnOutliers, MinChangeFiltersTinyStores) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1}));
  h.add(snap(Date::ymd(2020, 2, 1), {2}));  // 100% change but only 2 roots
  h.add(snap(Date::ymd(2020, 3, 1), {2}));
  h.add(snap(Date::ymd(2020, 4, 1), {2}));
  const auto outliers = find_outliers({churn_of(h)}, 1.0, 8);
  EXPECT_TRUE(outliers.empty());
}

TEST(ChurnOutliers, SortedByScore) {
  // Two providers, each with one outlier of different magnitude.
  auto history_with_burst = [&](const std::string& name, int burst,
                                std::uint64_t offset) {
    ProviderHistory h(name);
    Date d = Date::ymd(2016, 1, 1);
    for (int m = 0; m < 8; ++m) {
      std::initializer_list<int> dummy = {};
      (void)dummy;
      Snapshot s;
      s.provider = name;
      s.date = d;
      for (int i = 0; i < 30; ++i) {
        int id = i;
        if (m >= 4 && i < burst) id = 1000 + i;  // burst at snapshot 4
        s.entries.push_back(rs::store::make_tls_anchor(
            make_cert(offset + static_cast<std::uint64_t>(id))));
      }
      h.add(std::move(s));
      d = d.add_months(3);
    }
    return h;
  };
  const auto outliers = find_outliers(
      {churn_of(history_with_burst("Big", 25, 10000)),
       churn_of(history_with_burst("Small", 10, 20000))},
      1.5, 8);
  ASSERT_GE(outliers.size(), 2u);
  for (std::size_t i = 1; i < outliers.size(); ++i) {
    EXPECT_GE(outliers[i - 1].score, outliers[i].score);
  }
}

}  // namespace
}  // namespace rs::analysis
