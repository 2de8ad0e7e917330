#include "src/analysis/mds.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/core/study.h"
#include "src/crypto/prng.h"
#include "src/store/membership.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "tests/referee/mds_reference.h"

namespace rs::analysis {
namespace {

DistanceMatrix matrix_from(const std::vector<std::vector<double>>& rows) {
  DistanceMatrix m;
  const std::size_t n = rows.size();
  m.labels.resize(n);
  m.values.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m.values[i * n + j] = rows[i][j];
  }
  return m;
}

double dist2(const Point2& a, const Point2& b) {
  return std::sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y));
}

TEST(Mds, TrivialSizes) {
  EXPECT_TRUE(smacof_mds(matrix_from({})).points.empty());
  const auto one = smacof_mds(matrix_from({{0.0}}));
  EXPECT_EQ(one.points.size(), 1u);
}

TEST(Mds, RecoversEquilateralTriangle) {
  // Three points pairwise distance 1: embedding must reproduce distances.
  const auto m = matrix_from({{0, 1, 1}, {1, 0, 1}, {1, 1, 0}});
  const auto r = smacof_mds(m);
  ASSERT_EQ(r.points.size(), 3u);
  EXPECT_NEAR(dist2(r.points[0], r.points[1]), 1.0, 1e-3);
  EXPECT_NEAR(dist2(r.points[0], r.points[2]), 1.0, 1e-3);
  EXPECT_NEAR(dist2(r.points[1], r.points[2]), 1.0, 1e-3);
  EXPECT_LT(r.normalized_stress, 1e-5);
}

TEST(Mds, RecoversLineGeometry) {
  // Colinear points 0, 1, 3 on a line.
  const auto m = matrix_from({{0, 1, 3}, {1, 0, 2}, {3, 2, 0}});
  const auto r = smacof_mds(m);
  EXPECT_NEAR(dist2(r.points[0], r.points[1]), 1.0, 1e-2);
  EXPECT_NEAR(dist2(r.points[1], r.points[2]), 2.0, 1e-2);
  EXPECT_NEAR(dist2(r.points[0], r.points[2]), 3.0, 1e-2);
}

TEST(Mds, SmacofNeverWorseThanClassicalInit) {
  // A noisy non-Euclidean matrix: SMACOF must reduce stress.
  std::vector<std::vector<double>> rows(6, std::vector<double>(6, 0.0));
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      const double d = 0.3 + 0.1 * static_cast<double>((i * 7 + j * 3) % 5);
      rows[i][j] = rows[j][i] = d;
    }
  }
  const auto m = matrix_from(rows);
  const auto classical = classical_mds(m);
  const auto smacof = smacof_mds(m);
  EXPECT_LE(smacof.stress, classical.stress + 1e-9);
}

TEST(Mds, SeparatedClustersStaySeparated) {
  // Two tight clusters far apart: embedded within-cluster distances must be
  // much smaller than between-cluster ones.
  std::vector<std::vector<double>> rows(6, std::vector<double>(6, 0.0));
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      const bool same = (i < 3) == (j < 3);
      rows[i][j] = same ? 0.05 : 1.0;
    }
  }
  const auto r = smacof_mds(matrix_from(rows));
  double max_within = 0, min_between = 1e9;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      const double d = dist2(r.points[i], r.points[j]);
      if ((i < 3) == (j < 3)) max_within = std::max(max_within, d);
      else min_between = std::min(min_between, d);
    }
  }
  EXPECT_LT(max_within * 4, min_between);
}

TEST(Mds, StressIsDeterministic) {
  const auto m = matrix_from({{0, 0.4, 0.9}, {0.4, 0, 0.6}, {0.9, 0.6, 0}});
  const auto a = smacof_mds(m);
  const auto b = smacof_mds(m);
  EXPECT_EQ(a.stress, b.stress);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Mds, EmbeddingStressAgreesWithReportedStress) {
  const auto m = matrix_from({{0, 0.4, 0.9}, {0.4, 0, 0.6}, {0.9, 0.6, 0}});
  const auto r = smacof_mds(m);
  EXPECT_NEAR(embedding_stress(m, r.points), r.stress, 1e-9);
}


// --- the one-sweep kernel against the row-at-a-time referee -----------------

namespace ref = rs::referee::mds;

// Bit-identity: memcmp-equal points, and stress, normalized stress and
// iteration count equal to the last bit.
void expect_identical(const MdsResult& got, const MdsResult& want) {
  ASSERT_EQ(got.points.size(), want.points.size());
  EXPECT_EQ(std::memcmp(got.points.data(), want.points.data(),
                        got.points.size() * sizeof(Point2)),
            0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stress),
            std::bit_cast<std::uint64_t>(want.stress));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.normalized_stress),
            std::bit_cast<std::uint64_t>(want.normalized_stress));
  EXPECT_EQ(got.iterations, want.iterations);
}

// All three public functions against the referee on one matrix; returns
// the library's SMACOF result for case-specific checks.
MdsResult expect_matches_referee(const DistanceMatrix& m) {
  const auto classical = classical_mds(m);
  expect_identical(classical, ref::classical_mds(m));
  const auto smacof = smacof_mds(m);
  expect_identical(smacof, ref::smacof_mds(m));
  for (const auto* points : {&classical.points, &smacof.points}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(embedding_stress(m, *points)),
              std::bit_cast<std::uint64_t>(ref::embedding_stress(m, *points)));
  }
  return smacof;
}

DistanceMatrix figure1_matrix(const rs::store::StoreDatabase& db) {
  JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);
  opts.max_per_provider = rs::core::kFigure1MaxPerProvider;
  return jaccard_matrix(db, rs::store::MembershipTable::build(db), opts);
}

// A seeded symmetric matrix with a zero diagonal and entries in [0.2, 1.2).
DistanceMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  rs::crypto::Prng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      rows[i][j] = rows[j][i] = 0.2 + rng.uniform01();
    }
  }
  return matrix_from(rows);
}

TEST(MdsReferee, Figure1MatrixBitIdentical) {
  const auto scenario = rs::synth::build_paper_scenario();
  const auto m = figure1_matrix(scenario.database());
  ASSERT_EQ(m.size(), 301u);
  const auto r = expect_matches_referee(m);
  EXPECT_EQ(r.iterations, 85u);
}

TEST(MdsReferee, Figure1OptionsOnSimulatedEcosystems) {
  for (const std::uint64_t seed : {3u, 17u, 4242u}) {
    rs::synth::SimulatorConfig cfg;
    cfg.seed = seed;
    cfg.ca_count = 80;
    cfg.program_count = 3;
    cfg.derivative_count = 3;
    cfg.snapshot_interval_days = 90;
    const auto eco = rs::synth::simulate_ecosystem(cfg);
    const auto m = figure1_matrix(eco.database);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", n " +
                 std::to_string(m.size()));
    ASSERT_GT(m.size(), 100u);
    expect_matches_referee(m);
  }
}

TEST(MdsReferee, SmallSizesCoverTheFourRowTails) {
  for (std::size_t n = 2; n <= 9; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    expect_matches_referee(random_matrix(n, 1000 + n));
  }
}

TEST(MdsReferee, DuplicateSnapshotsTakeTheZeroDistanceBranch) {
  // Rows 0/1 and 3/4/5 are the same snapshot: their embedded points
  // coincide, so the transform meets d <= 1e-12 and weights them 0.
  const std::vector<std::size_t> of = {0, 0, 1, 2, 2, 2, 3};
  std::vector<std::vector<double>> rows(of.size(),
                                        std::vector<double>(of.size()));
  const double d[4][4] = {{0.0, 0.3, 0.7, 0.5},
                          {0.3, 0.0, 0.6, 0.9},
                          {0.7, 0.6, 0.0, 0.4},
                          {0.5, 0.9, 0.4, 0.0}};
  for (std::size_t i = 0; i < of.size(); ++i) {
    for (std::size_t j = 0; j < of.size(); ++j) rows[i][j] = d[of[i]][of[j]];
  }
  const auto m = matrix_from(rows);
  const auto r = expect_matches_referee(m);
  EXPECT_EQ(std::memcmp(&r.points[0], &r.points[1], sizeof(Point2)), 0);
  EXPECT_EQ(std::memcmp(&r.points[3], &r.points[5], sizeof(Point2)), 0);
}

TEST(MdsReferee, IterationCapBitIdentical) {
  const auto m = random_matrix(10, 13);
  const auto r = expect_matches_referee(m);
  // 300 transforms, reported as 301 iterations, as the reference does.
  EXPECT_EQ(r.iterations, 301u);
}

}  // namespace
}  // namespace rs::analysis
