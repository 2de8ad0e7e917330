// IdSet unit tests plus randomized IdSet-vs-FingerprintSet equivalence:
// on any pair of digest sets, interning and running the bitset algebra
// must produce exactly the results of the sorted-merge FingerprintSet
// algebra — cardinalities, materialized elements, and the Jaccard double
// bit-for-bit (both divide the same exact integers).
#include "src/store/id_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/crypto/prng.h"
#include "src/store/fingerprint_set.h"
#include "src/store/interner.h"

namespace rs::store {
namespace {

using rs::crypto::Sha256Digest;

Sha256Digest digest_from(std::uint64_t value) {
  Sha256Digest d{};
  for (std::size_t i = 0; i < 8; ++i) {
    d[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return d;
}

TEST(IdSet, EmptyBehaviour) {
  IdSet a;
  IdSet b(128);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.intersection_size(b), 0u);
  EXPECT_EQ(a.union_size(b), 0u);
  EXPECT_DOUBLE_EQ(a.jaccard_distance(b), 0.0);  // both empty: identical
  EXPECT_TRUE(a == b);
}

TEST(IdSet, InsertContainsAndCount) {
  IdSet s(256);
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(255);
  s.insert(63);  // duplicate: no double count
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(255));
  EXPECT_FALSE(s.contains(1));
  EXPECT_FALSE(s.contains(1000));  // beyond the words: absent, not UB
  EXPECT_EQ(s.ids(), (std::vector<std::uint32_t>{0, 63, 64, 255}));
}

TEST(IdSet, GrowsBeyondInitialUniverse) {
  IdSet s(10);
  s.insert(9);
  s.insert(500);  // lazy growth
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(500));
}

TEST(IdSet, AlgebraAcrossWordBoundaries) {
  IdSet a(200);
  IdSet b(200);
  for (std::uint32_t id : {1u, 63u, 64u, 65u, 129u}) a.insert(id);
  for (std::uint32_t id : {63u, 65u, 128u, 129u, 199u}) b.insert(id);

  EXPECT_EQ(a.intersection_size(b), 3u);  // 63, 65, 129
  EXPECT_EQ(b.intersection_size(a), 3u);
  EXPECT_EQ(a.union_size(b), 7u);

  EXPECT_EQ(a.intersection(b).ids(), (std::vector<std::uint32_t>{63, 65, 129}));
  EXPECT_EQ(a.difference(b).ids(), (std::vector<std::uint32_t>{1, 64}));
  EXPECT_EQ(b.difference(a).ids(), (std::vector<std::uint32_t>{128, 199}));
  EXPECT_EQ(a.set_union(b).size(), 7u);
  EXPECT_DOUBLE_EQ(a.jaccard_distance(b), 1.0 - 3.0 / 7.0);
}

TEST(IdSet, DifferentWordCountsCompose) {
  IdSet small(1);   // one word
  IdSet large(300); // five words
  small.insert(0);
  large.insert(0);
  large.insert(299);
  EXPECT_EQ(small.intersection_size(large), 1u);
  EXPECT_EQ(large.intersection_size(small), 1u);
  EXPECT_EQ(large.difference(small).ids(), (std::vector<std::uint32_t>{299}));
  EXPECT_EQ(small.difference(large).size(), 0u);
  IdSet merged = small.set_union(large);
  EXPECT_EQ(merged.ids(), (std::vector<std::uint32_t>{0, 299}));
  // Logical equality ignores trailing zero words.
  IdSet same(1);
  same.insert(0);
  IdSet padded(300);
  padded.insert(0);
  EXPECT_TRUE(same == padded);
}

TEST(IdSet, InPlaceUnionAccumulates) {
  IdSet acc(100);
  IdSet one(100, {1, 2, 3});
  IdSet two(100, {3, 4, 99});
  acc |= one;
  acc |= two;
  EXPECT_EQ(acc.ids(), (std::vector<std::uint32_t>{1, 2, 3, 4, 99}));
}

// --- Randomized equivalence against FingerprintSet ------------------------

struct SetPair {
  FingerprintSet fps;
  IdSet ids;
};

// Maps a set whose digests are all in `interner`'s universe.
IdSet ids_of(const CertInterner& interner, const FingerprintSet& fps) {
  IdSet out(interner.size());
  for (const auto& fp : fps.items()) out.insert(*interner.id_of(fp));
  return out;
}

// Draws a random digest set from a universe of `alphabet` values (small
// alphabet => guaranteed overlaps between independently drawn sets).
std::vector<Sha256Digest> random_digests(rs::crypto::Prng& prng,
                                         std::uint64_t alphabet,
                                         std::size_t count) {
  std::vector<Sha256Digest> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(digest_from(prng.uniform(alphabet) * 0x9E3779B97F4A7C15ULL));
  }
  return out;
}

void expect_equivalent(const SetPair& a, const SetPair& b,
                       const CertInterner& interner, const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.ids.intersection_size(b.ids), a.fps.intersection_size(b.fps));
  EXPECT_EQ(a.ids.union_size(b.ids), a.fps.union_size(b.fps));
  // Jaccard doubles must match bit-for-bit: same integer cardinalities,
  // same division.
  EXPECT_EQ(a.ids.jaccard_distance(b.ids), a.fps.jaccard_distance(b.fps));
  // Materialized difference/intersection/union round-trip to identical
  // FingerprintSets.
  EXPECT_TRUE(interner.materialize(a.ids.difference(b.ids)) ==
              a.fps.difference(b.fps));
  EXPECT_TRUE(interner.materialize(a.ids.intersection(b.ids)) ==
              a.fps.intersection(b.fps));
  EXPECT_TRUE(interner.materialize(a.ids.set_union(b.ids)) ==
              a.fps.set_union(b.fps));
}

TEST(IdSetProperty, RandomizedEquivalenceWithFingerprintSet) {
  rs::crypto::Prng prng(0xC0FFEE);
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t alphabet = 1 + prng.uniform(120);
    const auto raw_a = random_digests(prng, alphabet, prng.uniform(90));
    const auto raw_b = random_digests(prng, alphabet, prng.uniform(90));

    // Universe: everything both sets can contain.
    std::vector<Sha256Digest> universe = raw_a;
    universe.insert(universe.end(), raw_b.begin(), raw_b.end());
    const CertInterner interner{std::move(universe)};

    SetPair a{FingerprintSet(raw_a), {}};
    SetPair b{FingerprintSet(raw_b), {}};
    a.ids = ids_of(interner, a.fps);
    b.ids = ids_of(interner, b.fps);

    expect_equivalent(a, b, interner, "random pair");
    expect_equivalent(a, a, interner, "identical sets");
    expect_equivalent(b, b, interner, "identical sets (b)");

    // Round trip: interned -> materialized == original.
    EXPECT_TRUE(interner.materialize(a.ids) == a.fps);
    EXPECT_TRUE(interner.materialize(b.ids) == b.fps);
  }
}

TEST(IdSetProperty, EdgeCasesEmptyDisjointIdentical) {
  rs::crypto::Prng prng(42);
  const auto raw_a = random_digests(prng, 40, 30);
  // Disjoint set: shift into a distinct value range.
  std::vector<Sha256Digest> raw_b;
  for (std::size_t i = 0; i < 25; ++i) {
    raw_b.push_back(digest_from(0xDEAD000000000000ULL + i));
  }
  std::vector<Sha256Digest> universe = raw_a;
  universe.insert(universe.end(), raw_b.begin(), raw_b.end());
  const CertInterner interner{std::move(universe)};

  SetPair a{FingerprintSet(raw_a), {}};
  SetPair b{FingerprintSet(raw_b), {}};
  SetPair empty{FingerprintSet{}, {}};
  a.ids = ids_of(interner, a.fps);
  b.ids = ids_of(interner, b.fps);
  empty.ids = ids_of(interner, empty.fps);

  expect_equivalent(a, b, interner, "disjoint");
  expect_equivalent(a, empty, interner, "vs empty");
  expect_equivalent(empty, empty, interner, "empty vs empty");
  EXPECT_DOUBLE_EQ(a.ids.jaccard_distance(b.ids), 1.0);
  EXPECT_DOUBLE_EQ(empty.ids.jaccard_distance(empty.ids), 0.0);
}

}  // namespace
}  // namespace rs::store
