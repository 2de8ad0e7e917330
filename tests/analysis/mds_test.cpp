#include "src/analysis/mds.h"

#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace rs::analysis
