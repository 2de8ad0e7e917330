// Snapshot churn and ordination outliers (§4).
//
// The paper's Figure 1 outliers (Apple 2011-10 / 2014-02 / 2018-09, Java
// 2018-08) are snapshots preceded or followed by unusually large root-store
// changes.  This module measures exactly that: per-snapshot added/removed
// counts relative to the previous snapshot, the change fraction, and a
// ranked outlier list.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/store/membership.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::analysis {

/// Change between one snapshot and its predecessor.
struct ChurnPoint {
  rs::util::Date date;
  std::string version;
  std::size_t added = 0;
  std::size_t removed = 0;
  /// (added + removed) / union-size with the predecessor; 0 for the first
  /// snapshot.
  double change_fraction = 0;

  std::size_t total_change() const noexcept { return added + removed; }
  friend bool operator==(const ChurnPoint&, const ChurnPoint&) = default;
};

/// Per-provider churn series.
struct ChurnSeries {
  std::string provider;
  std::vector<ChurnPoint> points;
  double mean_change_fraction = 0;
  friend bool operator==(const ChurnSeries&, const ChurnSeries&) = default;
};

/// Computes churn over a provider history from its Scope::kPresent rows
/// (all certificates present, the set Figure 1 clusters on).  `table`
/// must hold `history`'s rows.
ChurnSeries churn_series(const rs::store::ProviderHistory& history,
                         const rs::store::MembershipTable& table);

/// An outlier: a snapshot whose change fraction exceeds
/// mean + `sigmas` * stddev of its provider's series (and is >= min_change
/// roots in absolute terms, to avoid flagging tiny stores).
struct ChurnOutlier {
  std::string provider;
  ChurnPoint point;
  double score = 0;  // standard deviations above the provider mean
};

/// Ranked outliers (largest score first) across the given series.
std::vector<ChurnOutlier> find_outliers(const std::vector<ChurnSeries>& series,
                                        double sigmas = 2.0,
                                        std::size_t min_change = 8);

}  // namespace rs::analysis
