// Cross-store disparity primitives over interned presence vectors.
//
// Purushothaman et al. ("Certificate Root Stores: An Area of Unity or
// Disparity?") formalize what Table 6 only hints at: given every
// provider's resolved store at a common date, how much do the stores
// actually agree?  This module computes those metrics — pairwise and
// global agreement scores, union/intersection sizes, and per-provider
// exclusive sets — as pure set algebra over `IdSet` presence vectors.
//
// Layering: rs_landscape sits BELOW rs_query by design.  Everything here
// operates on borrowed `const IdSet*` vectors; the header-only adapter in
// src/landscape/index_view.h resolves a TrustIndex into such views for the
// engine, the study reports, and the tests.  All integer cardinalities are
// exact, so every derived double (and its fixed-precision rendering) is
// bit-identical to a brute-force recomputation over the sorted-digest sets
// of the test referee (tests/referee/) — the differential battery in
// tests/landscape/ holds that line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/store/id_set.h"

namespace rs::exec {
class ThreadPool;
}

namespace rs::landscape {

/// One unordered provider pair's overlap, indexed into the caller's
/// provider order.  `agreement` is |A∩B| / |A∪B| (1.0 when both empty),
/// derived from the exact integer cardinalities below.
struct PairScore {
  std::size_t a = 0;  // index of the first provider (a < b)
  std::size_t b = 0;
  std::size_t intersection = 0;
  std::size_t union_size = 0;
};

/// Agreement metrics over one presence vector (one set per provider, all
/// interned against the same CertInterner).
struct AgreementSummary {
  std::vector<std::size_t> sizes;             // per provider, input order
  std::vector<std::size_t> exclusive_counts;  // roots only that provider has
  std::vector<PairScore> pairs;               // upper triangle, row-major
  std::size_t union_size = 0;
  std::size_t intersection_size = 0;
};

/// The agreement score for one exact cardinality pair: |∩| / |∪|, with the
/// empty-universe convention |∩|=|∪|=0 scoring 1.0 (two empty stores agree).
double agreement_score(std::size_t intersection, std::size_t union_size) noexcept;

/// Renders `numerator/denominator` with `digits` fixed decimals ("0.954321").
/// Both the engine responses and the reports format ratios through this one
/// function so a referee reproducing the integers reproduces the bytes.
std::string format_ratio(double numerator, double denominator, int digits);

/// Renders agreement_score(intersection, union_size) with 6 fixed decimals
/// — the canonical representation in responses and reports.
std::string format_agreement(std::size_t intersection,
                             std::size_t union_size);

/// Per-provider exclusive sets: exclusive[i] = candidates[i] minus the
/// union of held[j] for every j != i.  `held` may alias `candidates`
/// (at-date exclusivity) or be a wider set (Table 6 uses ever-trusted
/// sets as `held` with latest-snapshot sets as candidates).  Computed with
/// prefix/suffix union accumulators: O(P · words) instead of O(P² · words).
/// Requires candidates.size() == held.size(); entries must be non-null.
std::vector<rs::store::IdSet> exclusive_sets(
    const std::vector<const rs::store::IdSet*>& candidates,
    const std::vector<const rs::store::IdSet*>& held);

/// Full agreement summary over one presence vector.  `pool` parallelizes
/// the pairwise popcounts; results are identical for any worker count
/// (integer cardinalities, disjoint writes, fixed pair order).
AgreementSummary agreement_summary(
    const std::vector<const rs::store::IdSet*>& sets,
    rs::exec::ThreadPool* pool = nullptr);

}  // namespace rs::landscape
