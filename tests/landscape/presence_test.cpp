// Unit tests for the landscape disparity primitives: every metric is
// cross-checked against a naive recomputation over the same sets, and a
// pool passed to agreement_summary changes nothing and runs no task.
#include "src/landscape/presence.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/exec/thread_pool.h"
#include "src/landscape/ct_landscape.h"
#include "src/obs/clock.h"
#include "src/obs/registry.h"
#include "src/store/id_set.h"
#include "src/util/date.h"

namespace {

using rs::store::IdSet;

IdSet make_set(std::size_t universe, std::vector<std::uint32_t> ids) {
  return IdSet(universe, ids);
}

std::vector<const IdSet*> views(const std::vector<IdSet>& sets) {
  std::vector<const IdSet*> out;
  for (const auto& s : sets) out.push_back(&s);
  return out;
}

TEST(AgreementScore, JaccardWithEmptyConvention) {
  EXPECT_DOUBLE_EQ(rs::landscape::agreement_score(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(rs::landscape::agreement_score(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(rs::landscape::agreement_score(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(rs::landscape::agreement_score(0, 7), 0.0);
}

TEST(FormatRatio, FixedDecimalsAndZeroDenominator) {
  EXPECT_EQ(rs::landscape::format_ratio(1.0, 3.0, 4), "0.3333");
  EXPECT_EQ(rs::landscape::format_ratio(5.0, 0.0, 4), "0.0000");
  EXPECT_EQ(rs::landscape::format_ratio(-250.0, 100.0, 1), "-2.5");
  EXPECT_EQ(rs::landscape::format_agreement(0, 0), "1.000000");
  EXPECT_EQ(rs::landscape::format_agreement(1, 3), "0.333333");
}

TEST(ExclusiveSets, SelfHeldMatchesNaive) {
  const std::size_t universe = 40;
  std::vector<IdSet> sets;
  sets.push_back(make_set(universe, {0, 1, 2, 3, 10}));
  sets.push_back(make_set(universe, {1, 2, 3, 20, 21}));
  sets.push_back(make_set(universe, {2, 3, 30}));
  sets.push_back(make_set(universe, {}));
  const auto v = views(sets);
  const auto exclusive = rs::landscape::exclusive_sets(v, v);
  ASSERT_EQ(exclusive.size(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    IdSet others(universe);
    for (std::size_t j = 0; j < sets.size(); ++j) {
      if (j != i) others |= sets[j];
    }
    EXPECT_EQ(exclusive[i], sets[i].difference(others)) << "provider " << i;
  }
  EXPECT_EQ(exclusive[0].size(), 2u);  // {0, 10}
  EXPECT_EQ(exclusive[1].size(), 2u);  // {20, 21}
  EXPECT_EQ(exclusive[2].size(), 1u);  // {30}
  EXPECT_EQ(exclusive[3].size(), 0u);
}

TEST(ExclusiveSets, WiderHeldDiscountsMore) {
  // Table 6 shape: candidates are latest snapshots, held are ever-trusted
  // supersets — a root another provider USED to trust is not exclusive.
  const std::size_t universe = 8;
  std::vector<IdSet> latest;
  latest.push_back(make_set(universe, {0, 1}));
  latest.push_back(make_set(universe, {2}));
  std::vector<IdSet> ever;
  ever.push_back(make_set(universe, {0, 1, 5}));
  ever.push_back(make_set(universe, {1, 2}));  // provider 1 once had 1
  const auto exclusive =
      rs::landscape::exclusive_sets(views(latest), views(ever));
  EXPECT_EQ(exclusive[0].size(), 1u);  // only 0; 1 is in ever[1]
  EXPECT_TRUE(exclusive[0].contains(0));
  EXPECT_EQ(exclusive[1].size(), 1u);
  EXPECT_TRUE(exclusive[1].contains(2));
}

TEST(ExclusiveSets, SingleAndEmptyInputs) {
  EXPECT_TRUE(rs::landscape::exclusive_sets({}, {}).empty());
  std::vector<IdSet> one;
  one.push_back(make_set(4, {1, 3}));
  const auto v = views(one);
  const auto exclusive = rs::landscape::exclusive_sets(v, v);
  ASSERT_EQ(exclusive.size(), 1u);
  EXPECT_EQ(exclusive[0], one[0]);
}

TEST(AgreementSummary, MatchesNaiveRecomputation) {
  const std::size_t universe = 64;
  std::vector<IdSet> sets;
  sets.push_back(make_set(universe, {0, 1, 2, 3, 4, 5}));
  sets.push_back(make_set(universe, {2, 3, 4, 5, 6, 7, 8}));
  sets.push_back(make_set(universe, {4, 5, 40, 41}));
  sets.push_back(make_set(universe, {5}));
  sets.push_back(make_set(universe, {}));
  const auto v = views(sets);
  const auto s = rs::landscape::agreement_summary(v);

  ASSERT_EQ(s.sizes.size(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(s.sizes[i], sets[i].size());
  }
  IdSet all(universe);
  IdSet common = sets[0];
  for (const auto& x : sets) all |= x;
  for (const auto& x : sets) common = common.intersection(x);
  EXPECT_EQ(s.union_size, all.size());
  EXPECT_EQ(s.intersection_size, common.size());

  const std::size_t n = sets.size();
  ASSERT_EQ(s.pairs.size(), n * (n - 1) / 2);
  std::size_t k = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b, ++k) {
      EXPECT_EQ(s.pairs[k].a, a);
      EXPECT_EQ(s.pairs[k].b, b);
      EXPECT_EQ(s.pairs[k].intersection, sets[a].intersection_size(sets[b]));
      EXPECT_EQ(s.pairs[k].union_size, sets[a].union_size(sets[b]));
    }
  }
}

TEST(AgreementSummary, PoolArgumentChangesNothing) {
  const std::size_t universe = 512;
  std::vector<IdSet> sets;
  for (std::size_t p = 0; p < 12; ++p) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < universe; ++id) {
      if ((id * 2654435761u + p * 40503u) % 7 < 3) ids.push_back(id);
    }
    sets.push_back(make_set(universe, ids));
  }
  const auto v = views(sets);
  auto& reg = rs::obs::Registry::global();
  rs::obs::FakeClock clock(0, 1);
  reg.reset();
  reg.enable(&clock);
  const auto serial = rs::landscape::agreement_summary(v, nullptr);
  rs::exec::ThreadPool pool(3);
  const auto pooled = rs::landscape::agreement_summary(v, &pool);
  reg.disable();
  // The pairs are one plain loop: the pool never sees a task.
  EXPECT_EQ(reg.counter_value("exec.pool_tasks"), 0u);
  reg.reset();

  EXPECT_EQ(serial.sizes, pooled.sizes);
  EXPECT_EQ(serial.exclusive_counts, pooled.exclusive_counts);
  EXPECT_EQ(serial.union_size, pooled.union_size);
  EXPECT_EQ(serial.intersection_size, pooled.intersection_size);
  ASSERT_EQ(serial.pairs.size(), pooled.pairs.size());
  for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
    EXPECT_EQ(serial.pairs[i].a, pooled.pairs[i].a);
    EXPECT_EQ(serial.pairs[i].b, pooled.pairs[i].b);
    EXPECT_EQ(serial.pairs[i].intersection, pooled.pairs[i].intersection);
    EXPECT_EQ(serial.pairs[i].union_size, pooled.pairs[i].union_size);
  }
}

TEST(CtLandscape, CoverageRowsAndExclusives) {
  const std::size_t universe = 32;
  const IdSet log = make_set(universe, {0, 1, 2, 3, 8, 9});
  std::vector<IdSet> stores;
  stores.push_back(make_set(universe, {0, 1, 4}));
  stores.push_back(make_set(universe, {2, 3, 4, 5}));
  stores.push_back(make_set(universe, {}));
  const auto v = views(stores);
  const auto rows = rs::landscape::coverage_rows(log, v);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].store_size, 3u);
  EXPECT_EQ(rows[0].covered, 2u);
  EXPECT_EQ(rows[1].store_size, 4u);
  EXPECT_EQ(rows[1].covered, 2u);
  EXPECT_EQ(rows[2].store_size, 0u);
  EXPECT_EQ(rows[2].covered, 0u);
  // {8, 9} are in no store.
  EXPECT_EQ(rs::landscape::log_exclusive_count(log, v), 2u);
  EXPECT_EQ(rs::landscape::log_exclusive_count(log, {}), log.size());
}

TEST(CtLandscape, AdoptionLagSignedSum) {
  using rs::util::Date;
  rs::landscape::FirstSeen log(4), store(4);
  log[0] = Date::ymd(2020, 3, 1);    // 60 days after the store
  store[0] = Date::ymd(2020, 1, 1);
  log[1] = Date::ymd(2019, 12, 22);  // 10 days BEFORE the store
  store[1] = Date::ymd(2020, 1, 1);
  log[2] = Date::ymd(2020, 1, 1);    // log-only: no match
  store[3] = Date::ymd(2020, 1, 1);  // store-only: no match
  const auto lag = rs::landscape::adoption_lag(log, store);
  EXPECT_EQ(lag.matched, 2u);
  EXPECT_EQ(lag.total_lag_days, 50);
  const auto none = rs::landscape::adoption_lag({}, {});
  EXPECT_EQ(none.matched, 0u);
  EXPECT_EQ(none.total_lag_days, 0);
}

}  // namespace
