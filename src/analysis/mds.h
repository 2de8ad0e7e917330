// Metric multidimensional scaling (Figure 1).
//
// The paper embeds the pairwise Jaccard matrix into 2-D with sklearn's
// metric MDS (SMACOF stress majorization).  We implement both stages from
// scratch: classical (Torgerson) MDS via double-centering and power
// iteration for a good initialization, then SMACOF iterations with the
// Guttman transform until the stress improvement stalls.  Both run inline
// (docs/PARALLELISM.md says why).
//
// Each SMACOF iteration is one sweep over the upper triangle of the
// current embedding: it computes every pair's distance and weight once,
// returns the embedding's stress and writes its Guttman transform.  Row j
// receives its i < j terms in ascending i before its own j' > j terms,
// which is the column order of a row-at-a-time transform, so the points,
// the stress and the iteration count equal those of the row-at-a-time
// kernel bit for bit (tests/referee/mds_reference.h holds it).  The power
// iteration multiplies four matrix rows per pass over the vector, each
// row still summed in column order.  The distance matrix is symmetric,
// as every DistanceMatrix that jaccard_matrix builds is.
#pragma once

#include <cstddef>
#include <vector>

#include "src/analysis/jaccard.h"

namespace rs::analysis {

/// A 2-D embedding point.
struct Point2 {
  double x = 0;
  double y = 0;
};

/// Result of an embedding.
struct MdsResult {
  std::vector<Point2> points;       // one per matrix row
  double stress = 0;                // raw stress sigma = sum (d_ij - delta_ij)^2
  double normalized_stress = 0;     // stress / sum delta_ij^2
  std::size_t iterations = 0;
};

/// Classical (Torgerson) MDS to 2-D: eigendecomposition of the
/// double-centered squared-distance matrix via deflated power iteration.
MdsResult classical_mds(const DistanceMatrix& dist);

/// Metric MDS via SMACOF, initialized from classical MDS: at most 300
/// Guttman transforms, stopping once one improves the stress by less than
/// 1e-7 of its previous value.
MdsResult smacof_mds(const DistanceMatrix& dist);

/// Raw stress of an embedding against a distance matrix: per-row partial
/// sums, folded in row order.
double embedding_stress(const DistanceMatrix& dist,
                        const std::vector<Point2>& points);

}  // namespace rs::analysis
