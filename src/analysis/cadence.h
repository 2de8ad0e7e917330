// Update cadence (§6.1 "Update Dynamics").
//
// Beyond *how stale* a derivative's content is (Figure 3), the paper asks
// how often providers ship updates at all, and notes that "some derivative
// version updates ignore potential NSS updates".  This module measures it:
// snapshot intervals, the fraction of snapshots that changed nothing
// (no-op releases), and substantial updates per year.
#pragma once

#include <string>
#include <vector>

#include "src/store/membership.h"
#include "src/store/snapshot.h"

namespace rs::analysis {

/// Cadence statistics for one provider history.
struct UpdateCadence {
  std::string provider;
  std::size_t snapshots = 0;
  /// Snapshots whose certificate set differs from their predecessor.
  std::size_t substantial_updates = 0;
  /// Snapshots identical to their predecessor (releases that ignored
  /// upstream changes, or no upstream change existed).
  std::size_t noop_updates = 0;
  /// Days between consecutive snapshots.
  double mean_interval_days = 0;
  double median_interval_days = 0;
  /// Days between consecutive *substantial* updates.
  double mean_substantial_interval_days = 0;
  /// Substantial updates per year of covered history.
  double substantial_per_year = 0;
  friend bool operator==(const UpdateCadence&,
                         const UpdateCadence&) = default;
};

/// Compares consecutive Scope::kPresent rows of `history`; `table` must
/// hold its rows.  `substantial_updates` is also Table 2's "# Uniq".
UpdateCadence update_cadence(const rs::store::ProviderHistory& history,
                             const rs::store::MembershipTable& table);

}  // namespace rs::analysis
