// FingerprintSet: the referee's certificate set.
//
// The library has one set representation, the IdSet rows of a
// MembershipTable (src/store/membership.h).  The differential tests hold
// it to this second, independent one: a sorted, unique vector of SHA-256
// fingerprints with linear-merge set algebra, read straight off snapshot
// entries with no interner, no dense ids and no bitmaps.  The helpers
// below are the per-snapshot and per-database reads the library used to
// offer before its set walks moved onto membership rows.  Header-only, so
// tests and the naive benchmark baseline (bench/perf_landscape.cpp)
// include it from the repo root.  See docs/INTERNING.md.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/database.h"
#include "src/store/id_set.h"
#include "src/store/interner.h"
#include "src/store/overlay.h"
#include "src/store/snapshot.h"
#include "src/store/trust.h"

namespace rs::referee {

/// A sorted set of SHA-256 certificate fingerprints.
class FingerprintSet {
 public:
  using Digest = rs::crypto::Sha256Digest;

  FingerprintSet() = default;
  /// Builds from any order; sorts and deduplicates.
  explicit FingerprintSet(std::vector<Digest> prints)
      : prints_(std::move(prints)) {
    std::sort(prints_.begin(), prints_.end());
    prints_.erase(std::unique(prints_.begin(), prints_.end()), prints_.end());
  }

  void insert(const Digest& fp) {
    const auto it = std::lower_bound(prints_.begin(), prints_.end(), fp);
    if (it == prints_.end() || *it != fp) prints_.insert(it, fp);
  }
  bool contains(const Digest& fp) const {
    return std::binary_search(prints_.begin(), prints_.end(), fp);
  }

  std::size_t size() const noexcept { return prints_.size(); }
  bool empty() const noexcept { return prints_.empty(); }
  const std::vector<Digest>& items() const noexcept { return prints_; }

  std::size_t intersection_size(const FingerprintSet& other) const {
    std::size_t count = 0;
    auto a = prints_.begin();
    auto b = other.prints_.begin();
    while (a != prints_.end() && b != other.prints_.end()) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++count;
        ++a;
        ++b;
      }
    }
    return count;
  }
  std::size_t union_size(const FingerprintSet& other) const {
    return size() + other.size() - intersection_size(other);
  }

  /// Elements in this set but not in `other`.
  FingerprintSet difference(const FingerprintSet& other) const {
    FingerprintSet out;
    std::set_difference(prints_.begin(), prints_.end(), other.prints_.begin(),
                        other.prints_.end(), std::back_inserter(out.prints_));
    return out;
  }
  FingerprintSet intersection(const FingerprintSet& other) const {
    FingerprintSet out;
    std::set_intersection(prints_.begin(), prints_.end(),
                          other.prints_.begin(), other.prints_.end(),
                          std::back_inserter(out.prints_));
    return out;
  }
  FingerprintSet set_union(const FingerprintSet& other) const {
    FingerprintSet out;
    std::set_union(prints_.begin(), prints_.end(), other.prints_.begin(),
                   other.prints_.end(), std::back_inserter(out.prints_));
    return out;
  }

  /// Jaccard distance 1 - |A∩B| / |A∪B|; two empty sets have distance 0.
  double jaccard_distance(const FingerprintSet& other) const {
    const std::size_t uni = union_size(other);
    if (uni == 0) return 0.0;  // both empty: identical
    const std::size_t inter = intersection_size(other);
    return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
  }

  friend bool operator==(const FingerprintSet&,
                         const FingerprintSet&) = default;

 private:
  std::vector<Digest> prints_;  // sorted, unique
};

/// Entries of `snap` that pass `keep`, as a set.
template <typename Keep>
FingerprintSet prints_where(const rs::store::Snapshot& snap, Keep keep) {
  std::vector<rs::crypto::Sha256Digest> prints;
  for (const auto& e : snap.entries) {
    if (keep(e)) prints.push_back(e.certificate->sha256());
  }
  return FingerprintSet(std::move(prints));
}

/// Every certificate present in `snap`, regardless of trust bits.
inline FingerprintSet all_fingerprints(const rs::store::Snapshot& snap) {
  return prints_where(snap, [](const rs::store::TrustEntry&) { return true; });
}

/// Anchors of `snap` for one purpose.
inline FingerprintSet anchors_for(const rs::store::Snapshot& snap,
                                  rs::store::TrustPurpose p) {
  return prints_where(
      snap, [p](const rs::store::TrustEntry& e) { return e.is_anchor_for(p); });
}

/// TLS server-auth anchors of `snap`.
inline FingerprintSet tls_anchors(const rs::store::Snapshot& snap) {
  return anchors_for(snap, rs::store::TrustPurpose::kServerAuth);
}

/// TLS anchors of `snap` that `overlay` leaves effective at its date.
inline FingerprintSet effective_tls_anchors(
    const rs::store::Snapshot& snap, const rs::store::TrustOverlay& overlay) {
  return prints_where(snap, [&](const rs::store::TrustEntry& e) {
    return e.is_tls_anchor() &&
           !overlay.is_revoked(e.certificate->sha256(), snap.date);
  });
}

/// TLS anchors of `snap` that `overlay` revokes while they still ship.
inline FingerprintSet revoked_but_shipped(
    const rs::store::Snapshot& snap, const rs::store::TrustOverlay& overlay) {
  return prints_where(snap, [&](const rs::store::TrustEntry& e) {
    return e.is_tls_anchor() &&
           overlay.is_revoked(e.certificate->sha256(), snap.date);
  });
}

/// Certificates that were ever a TLS anchor in any history of `db`.
inline FingerprintSet all_tls_roots_ever(const rs::store::StoreDatabase& db) {
  std::vector<rs::crypto::Sha256Digest> prints;
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& e : snap.entries) {
        if (e.is_tls_anchor()) prints.push_back(e.certificate->sha256());
      }
    }
  }
  return FingerprintSet(std::move(prints));
}

/// An IdSet walked back to digests through `interner`.
inline FingerprintSet materialize(const rs::store::CertInterner& interner,
                                  const rs::store::IdSet& ids) {
  std::vector<rs::crypto::Sha256Digest> out;
  for (const std::uint32_t id : ids.ids()) {
    out.push_back(interner.digest_of(id));
  }
  return FingerprintSet(std::move(out));
}

}  // namespace rs::referee
