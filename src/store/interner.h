// Certificate interning: SHA-256 fingerprints to dense uint32 IDs.
//
// The analysis hot paths (pairwise Jaccard over 619 snapshots, closest-
// NSS-version matching, per-snapshot diffs, exclusive roots) are all set
// algebra over certificate fingerprints.  Interning the universe of
// certificates once turns every 32-byte digest into a dense ID, and every
// set into an IdSet bitmap where the algebra is popcount over packed words.
//
// Determinism contract: IDs are assigned in sorted-digest order, so the
// mapping is a pure function of the certificate universe — independent of
// snapshot iteration order, build order, or thread count.  Materialized
// results (IdSet::ids() walked through digest_of) therefore come out in
// sorted-digest order, the order the sorted-digest test referee keeps
// (tests/referee/).  See docs/INTERNING.md.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/id_set.h"

namespace rs::store {

class StoreDatabase;

/// The dense-ID mapping over a fixed certificate universe.
class CertInterner {
 public:
  CertInterner() = default;
  /// Builds from any order; sorts and deduplicates, then IDs = sorted index.
  explicit CertInterner(std::vector<rs::crypto::Sha256Digest> digests);

  /// Universe = every certificate in every snapshot of every history
  /// (all trust purposes), so any set drawn from `db` interns fully.
  static CertInterner from_database(const StoreDatabase& db);

  std::size_t size() const noexcept { return digests_.size(); }
  bool empty() const noexcept { return digests_.empty(); }

  /// Dense ID for a digest, if it is in the universe: a binary search
  /// inside the one radix bucket that the digest's leading bits pick.
  std::optional<std::uint32_t> id_of(
      const rs::crypto::Sha256Digest& fp) const noexcept;
  const rs::crypto::Sha256Digest& digest_of(std::uint32_t id) const {
    return digests_[id];
  }

  /// The sorted, unique digest universe (ID i maps to digests()[i]).  The
  /// persistence layer serializes this flat array directly.
  const std::vector<rs::crypto::Sha256Digest>& digests() const noexcept {
    return digests_;
  }

 private:
  std::uint32_t bucket_of(const rs::crypto::Sha256Digest& fp) const noexcept;

  std::vector<rs::crypto::Sha256Digest> digests_;  // sorted, unique
  // Radix index over digests_, derived at construction and never
  // persisted: bucket b holds the digests whose leading prefix_bits_ bits
  // equal b, at digests_[starts_[b], starts_[b + 1]).  Empty while the
  // universe is.
  unsigned prefix_bits_ = 0;
  std::vector<std::uint32_t> starts_;
};

}  // namespace rs::store
