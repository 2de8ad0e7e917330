// Dense-ID certificate sets packed as 64-bit words.
//
// Once a CertInterner has mapped SHA-256 fingerprints to dense uint32 IDs,
// every set operation the analyses need — intersection/union cardinality,
// Jaccard distance, difference materialization — becomes bitwise AND/OR
// plus popcount over a handful of cache lines, instead of a linear merge
// over 32-byte digests.  All cardinalities are exact integers, so the
// doubles derived from them (Jaccard) are bit-identical to the merge-based
// results of the sorted-digest test referee (tests/referee/); see
// docs/INTERNING.md for the contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rs::store {

/// A set of dense certificate IDs, packed one bit per ID.
///
/// Word storage is sized lazily to the highest ID inserted; operations
/// between sets of different word counts treat the missing tail as zeros,
/// so sets interned against the same CertInterner always compose exactly.
class IdSet {
 public:
  IdSet() = default;
  /// Pre-sizes the bitmap for IDs in [0, universe_size).
  explicit IdSet(std::size_t universe_size);
  /// Builds from any order of IDs (duplicates welcome).
  IdSet(std::size_t universe_size, const std::vector<std::uint32_t>& ids);

  /// Inline: the membership lanes insert once per entry and scope.
  void insert(std::uint32_t id) {
    const std::size_t word = id / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((words_[word] & bit) == 0) {
      words_[word] |= bit;
      ++count_;
    }
  }
  bool contains(std::uint32_t id) const noexcept;

  /// Number of IDs present (maintained incrementally; O(1)).
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  std::size_t intersection_size(const IdSet& other) const noexcept;
  std::size_t union_size(const IdSet& other) const noexcept;

  /// Elements in this set but not in `other`.
  IdSet difference(const IdSet& other) const;
  IdSet intersection(const IdSet& other) const;
  IdSet set_union(const IdSet& other) const;

  /// In-place union (the bulk-accumulation path for "ever" sets).
  IdSet& operator|=(const IdSet& other);

  /// Jaccard distance 1 - |A∩B| / |A∪B|; two empty sets have distance 0.
  /// Exact-integer cardinalities make this bit-identical to the referee's
  /// sorted-digest merge on the equivalent sets.
  double jaccard_distance(const IdSet& other) const noexcept;

  /// All IDs present, ascending.  Because the interner assigns IDs in
  /// sorted-digest order, this is also sorted-digest order.
  std::vector<std::uint32_t> ids() const;

  /// Raw packed words (may carry trailing zero words; the persisted form
  /// trims them — see src/store/persist.h).
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Rebuilds a set from packed words (the persistence load path); the
  /// cardinality is recomputed by popcount.
  static IdSet from_words(std::vector<std::uint64_t> words);

  /// Logical equality: same IDs present (trailing zero words ignored).
  friend bool operator==(const IdSet& a, const IdSet& b) noexcept;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace rs::store
