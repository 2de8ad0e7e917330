// Derivative staleness against NSS substantial versions (Figure 3).
//
// A "substantial version" is an NSS snapshot that changed the TLS-trusted
// root set.  Each derivative snapshot is matched to its closest substantial
// version by Jaccard distance; the gap between that version and NSS's
// current version, integrated over time, yields the paper's
// "substantial-version-days" staleness measure.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/store/id_set.h"
#include "src/store/membership.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::analysis {

/// The ordered list of NSS substantial versions.  Each version carries
/// its snapshot's TLS membership row, so closest_match is a popcount scan.
class NssVersionIndex {
 public:
  struct Version {
    std::size_t index = 0;     // 1-based substantial version number
    std::size_t snapshot = 0;  // position of its snapshot in the NSS history
    rs::util::Date date;
    std::string label;         // snapshot version string
    rs::store::IdSet tls_anchors;
  };

  explicit NssVersionIndex(std::vector<Version> versions)
      : versions_(std::move(versions)) {}

  const std::vector<Version>& versions() const noexcept { return versions_; }
  std::size_t size() const noexcept { return versions_.size(); }

  /// Latest substantial version dated on or before `when` (nullptr if none).
  const Version* current_at(rs::util::Date when) const;

  /// The version whose TLS set is Jaccard-closest to `anchors` (ties
  /// broken toward the earlier version).  nullptr if empty.  `anchors`
  /// must come from the table the index was built from.
  const Version* closest_match(const rs::store::IdSet& anchors) const;

 private:
  std::vector<Version> versions_;
};

/// Extracts substantial versions from the NSS history: the first snapshot
/// plus every snapshot whose TLS-anchor set differs from its predecessor.
/// `table` must hold `nss`'s rows.
NssVersionIndex build_version_index(const rs::store::ProviderHistory& nss,
                                    const rs::store::MembershipTable& table);

/// One derivative snapshot's staleness sample.
struct StalenessPoint {
  rs::util::Date date;
  std::size_t matched_version = 0;  // substantial version copied
  std::size_t current_version = 0;  // NSS's version at that date
  double versions_behind = 0;       // max(0, current - matched)
  friend bool operator==(const StalenessPoint&,
                         const StalenessPoint&) = default;
};

/// Figure 3 series for one derivative.
struct StalenessResult {
  std::string provider;
  std::vector<StalenessPoint> points;
  /// Time-weighted average versions-behind across the sampled range.
  double avg_versions_behind = 0;
  /// True if the derivative was behind at every sample ("always stale").
  bool always_stale = false;
  friend bool operator==(const StalenessResult&,
                         const StalenessResult&) = default;
};

/// Computes the staleness series, matching `deriv`'s TLS rows from
/// `table` against `index`.  Snapshots are independent, so `pool`
/// parallelizes the per-snapshot version matching; points stay in snapshot
/// order and the result is identical for any worker count.
StalenessResult derivative_staleness(const rs::store::ProviderHistory& deriv,
                                     const rs::store::MembershipTable& table,
                                     const NssVersionIndex& index,
                                     rs::exec::ThreadPool* pool = nullptr);

}  // namespace rs::analysis
