// Pairwise Jaccard distances across root-store snapshots (§4).
//
// The paper clusters providers by the Jaccard distance between their
// snapshots' certificate sets.  This module flattens a StoreDatabase into a
// labelled snapshot list and computes the symmetric distance matrix, either
// over all certificates present or over TLS anchors only (trust-aware
// variant; see DESIGN.md ablations).
//
// Matrix construction points each matrix row at its membership-table set,
// then runs the O(n^2) upper-triangle popcount pair loop inline.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/store/database.h"
#include "src/store/membership.h"
#include "src/util/date.h"

namespace rs::analysis {

/// A reference to one snapshot in the flattened matrix order.
struct SnapshotRef {
  std::string provider;
  rs::util::Date date;
  std::string version;
  std::size_t provider_index = 0;  // index within the provider's history
};

/// Which certificate set the distance is computed over.
enum class SetKind {
  kAllCertificates,  // paper's choice: every root present
  kTlsAnchors,       // trust-aware ablation
};

/// A symmetric distance matrix with its row labels.
struct DistanceMatrix {
  std::vector<SnapshotRef> labels;
  /// Row-major n*n distances in [0, 1].
  std::vector<double> values;

  std::size_t size() const noexcept { return labels.size(); }
  double at(std::size_t i, std::size_t j) const {
    assert(i < labels.size() && j < labels.size() &&
           "DistanceMatrix::at index out of range");
    return values[i * labels.size() + j];
  }
};

/// Options for matrix construction.
struct JaccardOptions {
  SetKind set_kind = SetKind::kAllCertificates;
  /// Only snapshots dated in [min_date, max_date] are included (the paper's
  /// Figure 1 restricts to 2011-2021).
  std::optional<rs::util::Date> min_date;
  std::optional<rs::util::Date> max_date;
  /// Keep at most this many snapshots per provider (uniform subsample, most
  /// recent kept); 0 = no limit.  Controls MDS cost.
  std::size_t max_per_provider = 0;
};

/// Builds the pairwise Jaccard distance matrix over `db`'s snapshots,
/// reading each snapshot's set from `table` (built over `db`).
DistanceMatrix jaccard_matrix(const rs::store::StoreDatabase& db,
                              const rs::store::MembershipTable& table,
                              const JaccardOptions& options = {});

}  // namespace rs::analysis
