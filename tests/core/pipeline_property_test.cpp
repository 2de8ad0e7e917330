// Pipeline property tests on simulated ecosystems: the analyses must hold
// their invariants for arbitrary (seeded) inputs, not just the curated
// scenario.
#include <gtest/gtest.h>

#include "src/analysis/diffs.h"
#include "src/analysis/hygiene.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/analysis/staleness.h"
#include "src/exec/thread_pool.h"
#include "src/store/membership.h"
#include "src/formats/certdata.h"
#include "src/formats/jks.h"
#include "src/synth/simulator.h"

namespace rs::core {
namespace {

class SimulatedPipelineTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  rs::synth::SimulatedEcosystem make() {
    rs::synth::SimulatorConfig cfg;
    cfg.seed = GetParam();
    cfg.ca_count = 60;
    cfg.program_count = 2;
    cfg.derivative_count = 2;
    cfg.snapshot_interval_days = 120;
    return rs::synth::simulate_ecosystem(cfg);
  }
};

TEST_P(SimulatedPipelineTest, JaccardMatrixIsValidMetricInput) {
  const auto eco = make();
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 15;
  const auto dist = rs::analysis::jaccard_matrix(
      eco.database, rs::store::MembershipTable::build(eco.database), opts);
  for (std::size_t i = 0; i < dist.size(); ++i) {
    EXPECT_DOUBLE_EQ(dist.at(i, i), 0.0);
    for (std::size_t j = 0; j < dist.size(); ++j) {
      EXPECT_GE(dist.at(i, j), 0.0);
      EXPECT_LE(dist.at(i, j), 1.0);
      EXPECT_DOUBLE_EQ(dist.at(i, j), dist.at(j, i));
    }
  }
}

TEST_P(SimulatedPipelineTest, SmacofReducesStressVsClassical) {
  const auto eco = make();
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 12;
  const auto dist = rs::analysis::jaccard_matrix(
      eco.database, rs::store::MembershipTable::build(eco.database), opts);
  if (dist.size() < 3) GTEST_SKIP();
  const auto classical = rs::analysis::classical_mds(dist);
  const auto smacof = rs::analysis::smacof_mds(dist);
  EXPECT_LE(smacof.stress, classical.stress + 1e-9);
  EXPECT_GE(smacof.normalized_stress, 0.0);
}

TEST_P(SimulatedPipelineTest, StalenessIsNonNegativeAndBounded) {
  const auto eco = make();
  const auto* base = eco.database.find(eco.base_program);
  ASSERT_NE(base, nullptr);
  const auto table = rs::store::MembershipTable::build(eco.database);
  const auto index = rs::analysis::build_version_index(*base, table);
  for (const auto& name : eco.derivative_names) {
    const auto* deriv = eco.database.find(name);
    ASSERT_NE(deriv, nullptr);
    const auto res = rs::analysis::derivative_staleness(*deriv, table, index);
    EXPECT_GE(res.avg_versions_behind, 0.0) << name;
    EXPECT_LE(res.avg_versions_behind, static_cast<double>(index.size()))
        << name;
    for (const auto& p : res.points) {
      EXPECT_LE(p.matched_version, index.size());
      EXPECT_LE(p.versions_behind,
                static_cast<double>(p.current_version));
    }
  }
}

TEST_P(SimulatedPipelineTest, DiffCountsAreConsistent) {
  const auto eco = make();
  const auto* base = eco.database.find(eco.base_program);
  const auto table = rs::store::MembershipTable::build(eco.database);
  const auto index = rs::analysis::build_version_index(*base, table);
  for (const auto& name : eco.derivative_names) {
    const auto series = rs::analysis::derivative_diffs(
        *eco.database.find(name), *base, table, index);
    for (const auto& p : series.points) {
      std::size_t adds = 0;
      for (auto v : p.adds) adds += v;
      EXPECT_EQ(adds, p.added_total());
      std::size_t removes = 0;
      for (auto v : p.removes) removes += v;
      EXPECT_EQ(removes, p.removed_total());
    }
  }
}

TEST_P(SimulatedPipelineTest, ParallelAnalysesMatchSerialBitwise) {
  // Randomized ecosystems hit snapshot counts and set sizes the curated
  // scenario cannot, catching chunk-boundary bugs in the parallel paths.
  const auto eco = make();
  rs::analysis::JaccardOptions opts;
  opts.max_per_provider = 13;  // odd count stresses uneven chunk edges

  const auto table = rs::store::MembershipTable::build(eco.database);
  const auto dist_serial =
      rs::analysis::jaccard_matrix(eco.database, table, opts);
  const auto mds_serial = rs::analysis::smacof_mds(dist_serial);
  const auto* base = eco.database.find(eco.base_program);
  ASSERT_NE(base, nullptr);
  const auto index = rs::analysis::build_version_index(*base, table);

  for (std::size_t workers : {std::size_t{2}, std::size_t{5}}) {
    rs::exec::ThreadPool pool(workers);

    const auto dist =
        rs::analysis::jaccard_matrix(eco.database, table, opts, &pool);
    ASSERT_EQ(dist.size(), dist_serial.size());
    EXPECT_TRUE(dist.values == dist_serial.values) << workers << " workers";

    const auto mds = rs::analysis::smacof_mds(dist_serial, {}, &pool);
    EXPECT_EQ(mds.iterations, mds_serial.iterations);
    EXPECT_EQ(mds.stress, mds_serial.stress);
    ASSERT_EQ(mds.points.size(), mds_serial.points.size());
    for (std::size_t i = 0; i < mds.points.size(); ++i) {
      EXPECT_EQ(mds.points[i].x, mds_serial.points[i].x);
      EXPECT_EQ(mds.points[i].y, mds_serial.points[i].y);
    }

    for (const auto& name : eco.derivative_names) {
      const auto* deriv = eco.database.find(name);
      ASSERT_NE(deriv, nullptr);
      EXPECT_EQ(
          rs::analysis::derivative_staleness(*deriv, table, index, &pool),
          rs::analysis::derivative_staleness(*deriv, table, index))
          << name;
      EXPECT_EQ(
          rs::analysis::derivative_diffs(*deriv, *base, table, index, &pool),
          rs::analysis::derivative_diffs(*deriv, *base, table, index))
          << name;
    }
  }
}

TEST_P(SimulatedPipelineTest, HygieneAveragesWithinStoreBounds) {
  const auto eco = make();
  for (const auto& [name, history] : eco.database.histories()) {
    const auto m = rs::analysis::hygiene_metrics(history);
    EXPECT_GE(m.avg_size, 0.0) << name;
    EXPECT_LE(m.avg_expired, m.avg_size) << name;
  }
}

TEST_P(SimulatedPipelineTest, EveryStoreSurvivesCertdataRoundTrip) {
  const auto eco = make();
  const auto* base = eco.database.find(eco.base_program);
  const auto& latest = base->back();
  const std::string text = rs::formats::write_certdata(latest.entries);
  auto parsed = rs::formats::parse_certdata(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().entries.size(), latest.entries.size());
  for (std::size_t i = 0; i < latest.entries.size(); ++i) {
    EXPECT_EQ(parsed.value().entries[i].certificate->sha256(),
              latest.entries[i].certificate->sha256());
  }
}

TEST_P(SimulatedPipelineTest, EveryStoreSurvivesJksRoundTrip) {
  const auto eco = make();
  const auto* base = eco.database.find(eco.base_program);
  const auto& latest = base->back();
  const auto blob =
      rs::formats::write_jks(latest.entries, latest.date);
  auto parsed = rs::formats::parse_jks(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().entries.size(), latest.entries.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatedPipelineTest,
                         ::testing::Values(1u, 7u, 42u, 1337u, 99991u));

}  // namespace
}  // namespace rs::core
