// The referee set itself: construction, membership and merge algebra.
#include "tests/referee/fingerprint_set.h"

#include <gtest/gtest.h>

namespace rs::referee {
namespace {

rs::crypto::Sha256Digest fp(int n) {
  rs::crypto::Sha256Digest d{};
  d[0] = static_cast<std::uint8_t>(n);
  d[1] = static_cast<std::uint8_t>(n >> 8);
  return d;
}

FingerprintSet make(std::initializer_list<int> ns) {
  std::vector<rs::crypto::Sha256Digest> v;
  for (int n : ns) v.push_back(fp(n));
  return FingerprintSet(std::move(v));
}

TEST(FingerprintSet, ConstructionSortsAndDedups) {
  const auto s = make({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(fp(1)));
  EXPECT_TRUE(s.contains(fp(3)));
  EXPECT_TRUE(s.contains(fp(5)));
  EXPECT_FALSE(s.contains(fp(2)));
}

TEST(FingerprintSet, InsertKeepsInvariant) {
  FingerprintSet s;
  s.insert(fp(9));
  s.insert(fp(2));
  s.insert(fp(9));  // duplicate
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(fp(2)));
}

TEST(FingerprintSet, SetAlgebra) {
  const auto a = make({1, 2, 3, 4});
  const auto b = make({3, 4, 5});
  EXPECT_EQ(a.intersection_size(b), 2u);
  EXPECT_EQ(a.union_size(b), 5u);
  EXPECT_EQ(a.difference(b), make({1, 2}));
  EXPECT_EQ(b.difference(a), make({5}));
  EXPECT_EQ(a.intersection(b), make({3, 4}));
  EXPECT_EQ(a.set_union(b), make({1, 2, 3, 4, 5}));
}

TEST(FingerprintSet, JaccardDistance) {
  const auto a = make({1, 2, 3, 4});
  const auto b = make({3, 4, 5});
  EXPECT_DOUBLE_EQ(a.jaccard_distance(b), 1.0 - 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(a.jaccard_distance(a), 0.0);
  EXPECT_DOUBLE_EQ(make({}).jaccard_distance(make({})), 0.0);
  EXPECT_DOUBLE_EQ(make({1}).jaccard_distance(make({2})), 1.0);
}

TEST(FingerprintSetProperty, JaccardIsAMetricOnSamples) {
  // Triangle inequality holds for Jaccard distance; spot-check many triples.
  std::vector<FingerprintSet> sets;
  for (int i = 0; i < 12; ++i) {
    std::vector<rs::crypto::Sha256Digest> v;
    for (int k = 0; k < 20; ++k) {
      if ((k * 7 + i * 13) % 5 < 3) v.push_back(fp(k));
    }
    sets.push_back(FingerprintSet(std::move(v)));
  }
  for (const auto& a : sets) {
    for (const auto& b : sets) {
      EXPECT_DOUBLE_EQ(a.jaccard_distance(b), b.jaccard_distance(a));
      for (const auto& c : sets) {
        EXPECT_LE(a.jaccard_distance(c),
                  a.jaccard_distance(b) + b.jaccard_distance(c) + 1e-12);
      }
    }
  }
}

TEST(FingerprintSetProperty, AlgebraSizesAreConsistent) {
  for (int i = 0; i < 30; ++i) {
    const auto a = make({i, i + 1, i + 2, 2 * i});
    const auto b = make({i + 2, i + 3, 2 * i});
    EXPECT_EQ(a.union_size(b),
              a.size() + b.size() - a.intersection_size(b));
    EXPECT_EQ(a.difference(b).size() + a.intersection_size(b), a.size());
    EXPECT_EQ(a.set_union(b).size(), a.union_size(b));
  }
}

}  // namespace
}  // namespace rs::referee
