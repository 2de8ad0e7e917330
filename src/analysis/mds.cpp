#include "src/analysis/mds.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace rs::analysis {

namespace {

// SMACOF stops after this many Guttman transforms, or earlier once one
// improves the stress by less than kTolerance of its previous value.
constexpr std::size_t kMaxIterations = 300;
constexpr double kTolerance = 1e-7;

double point_distance(const Point2& a, const Point2& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// Sum of squared upper-triangle distances (the normalized-stress
// denominator).  Each row's partial sum is added to the total as the row
// finishes, the order Figure 1's stress digits were recorded in.
double pairwise_squared_sum(const DistanceMatrix& dist) {
  const std::size_t n = dist.size();
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      row += dist.at(i, j) * dist.at(i, j);
    }
    total += row;
  }
  return total;
}

// out = m * v for the row-major n*n matrix `m`.  Four rows share each
// pass over `v`, but every row still sums its products in column order,
// so each entry equals a one-row dot product bit for bit.
void multiply(const std::vector<double>& m, std::size_t n,
              const std::vector<double>& v, std::vector<double>& out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = m.data() + i * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double vj = v[j];
      a0 += r0[j] * vj;
      a1 += r1[j] * vj;
      a2 += r2[j] * vj;
      a3 += r3[j] * vj;
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) {
    const double* r = m.data() + i * n;
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += r[j] * v[j];
    out[i] = acc;
  }
}

// Power iteration for the dominant eigenpair of a symmetric matrix `m`,
// deflating `prior` eigenpairs (vectors stored column-wise in `evecs`).
void power_iteration(const std::vector<double>& m, std::size_t n,
                     const std::vector<std::vector<double>>& prior_vecs,
                     const std::vector<double>& prior_vals,
                     std::vector<double>& evec, double& eval) {
  evec.assign(n, 0.0);
  // Deterministic start, varied per deflation round; otherwise a degenerate
  // (repeated) eigenvalue would leave later rounds starting parallel to the
  // eigenvector already extracted and converge to zero.
  const std::size_t round = prior_vecs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t mix = (i + 1) * 2654435761u + round * 40503u;
    evec[i] = 1.0 + 0.37 * static_cast<double>(mix % 97) / 97.0 +
              (round > 0 ? 0.61 * static_cast<double>((mix / 97) % 89) / 89.0
                         : 0.0);
  }
  // Orthogonalize the start against prior eigenvectors so the deflated
  // component is non-trivial even in degenerate eigenspaces.
  for (const auto& prior : prior_vecs) {
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) dot += prior[i] * evec[i];
    for (std::size_t i = 0; i < n; ++i) evec[i] -= dot * prior[i];
  }
  std::vector<double> next(n);
  eval = 0.0;
  for (int iter = 0; iter < 500; ++iter) {
    // next = M * evec, with deflation of prior eigenpairs.
    multiply(m, n, evec, next);
    for (std::size_t k = 0; k < prior_vecs.size(); ++k) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += prior_vecs[k][i] * evec[i];
      for (std::size_t i = 0; i < n; ++i) {
        next[i] -= prior_vals[k] * prior_vecs[k][i] * dot;
      }
    }
    double norm = 0.0;
    for (double v : next) norm += v * v;
    norm = std::sqrt(norm);
    if (norm < 1e-15) break;
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double nv = next[i] / norm;
      delta += std::abs(nv - evec[i]);
      evec[i] = nv;
    }
    eval = norm;
    if (delta < 1e-12) break;
  }
  // Rayleigh quotient for a signed eigenvalue, over one more product.
  multiply(m, n, evec, next);
  double rq = 0.0;
  for (std::size_t i = 0; i < n; ++i) rq += evec[i] * next[i];
  eval = rq;
}

// Classical (Torgerson) coordinates: the two leading eigenpairs of the
// double-centered squared-distance matrix.  Needs n >= 2.
std::vector<Point2> classical_points(const DistanceMatrix& dist) {
  const std::size_t n = dist.size();
  // B = -1/2 J D^2 J  (double centering).
  std::vector<double> b(n * n);
  std::vector<double> row_mean(n, 0.0);
  double grand_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double d2 = dist.at(i, j) * dist.at(i, j);
      b[i * n + j] = d2;
      row_mean[i] += d2;
    }
    row_mean[i] /= static_cast<double>(n);
    grand_mean += row_mean[i];
  }
  grand_mean /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[i * n + j] =
          -0.5 * (b[i * n + j] - row_mean[i] - row_mean[j] + grand_mean);
    }
  }

  std::vector<std::vector<double>> evecs;
  std::vector<double> evals;
  for (int k = 0; k < 2; ++k) {
    std::vector<double> v;
    double lambda = 0.0;
    power_iteration(b, n, evecs, evals, v, lambda);
    evecs.push_back(std::move(v));
    evals.push_back(lambda);
  }
  std::vector<Point2> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i].x = evals[0] > 0 ? evecs[0][i] * std::sqrt(evals[0]) : 0.0;
    points[i].y = evals[1] > 0 ? evecs[1][i] * std::sqrt(evals[1]) : 0.0;
  }
  return points;
}

// One SMACOF sweep over the upper triangle of `points` (P): returns
// stress(P) and writes the Guttman transform with unit weights to `next`:
//   next_i = (1/n) * sum_{j != i} w_ij * (x_i - x_j),  w_ij = delta_ij / d_ij
// (row i of n^-1 B(X) X, where B(X)_ij = -w_ij off-diagonal and the
// diagonal makes rows sum to zero).  Each pair's distance and weight are
// computed once.  Row i's stress partial folds in column order, as
// embedding_stress does.  Pair (i, j) adds w_ij * (x_i - x_j) to row i and
// subtracts it from row j, so row j sums its i < j terms in ascending i
// before its own j' > j terms: the column order of the row-at-a-time
// transform.  Subtracting is exact: x_j - x_i is -(x_i - x_j), and an
// accumulator that starts at +0 never holds -0, so the sign of a zero term
// cannot show.  `dist` is symmetric, as every distance matrix is.
double stress_and_transform(const DistanceMatrix& dist,
                            const std::vector<Point2>& points,
                            std::vector<Point2>& next) {
  const std::size_t n = points.size();
  std::fill(next.begin(), next.end(), Point2{});
  double stress = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point2 p = points[i];
    const double* delta_row = dist.values.data() + i * n;
    Point2 acc = next[i];
    double row = 0.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = p.x - points[j].x;
      const double dy = p.y - points[j].y;
      const double d = std::sqrt(dx * dx + dy * dy);
      const double delta = delta_row[j];
      row += (d - delta) * (d - delta);
      const double w = d > 1e-12 ? delta / d : 0.0;
      acc.x += w * dx;
      acc.y += w * dy;
      next[j].x -= w * dx;
      next[j].y -= w * dy;
    }
    stress += row;
    next[i].x = acc.x / static_cast<double>(n);
    next[i].y = acc.y / static_cast<double>(n);
  }
  return stress;
}

}  // namespace

double embedding_stress(const DistanceMatrix& dist,
                        const std::vector<Point2>& points) {
  const std::size_t n = dist.size();
  // Per-row partials folded in row order, as pairwise_squared_sum does.
  double stress = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = point_distance(points[i], points[j]);
      const double delta = dist.at(i, j);
      row += (d - delta) * (d - delta);
    }
    stress += row;
  }
  return stress;
}

MdsResult classical_mds(const DistanceMatrix& dist) {
  MdsResult out;
  if (dist.size() < 2) {
    out.points.assign(dist.size(), Point2{});
    return out;
  }
  out.points = classical_points(dist);
  out.stress = embedding_stress(dist, out.points);
  const double denom = pairwise_squared_sum(dist);
  out.normalized_stress = denom > 0 ? out.stress / denom : 0.0;
  out.iterations = 1;
  return out;
}

MdsResult smacof_mds(const DistanceMatrix& dist) {
  rs::obs::Span span("mds/smacof");
  const std::size_t n = dist.size();
  MdsResult out;
  if (n < 2) {
    out.points.assign(n, Point2{});
    return out;
  }

  // Each sweep returns the stress of out.points and writes their
  // transform to `next`: the first gives stress(P0) and P1, and the sweep
  // of P(k+1) gives the stress the stopping test compares and P(k+2), which
  // is dropped when the test stops the loop.
  out.points = classical_points(dist);
  std::vector<Point2> next(n);
  double prev_stress = stress_and_transform(dist, out.points, next);
  std::size_t iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    std::swap(out.points, next);
    const double stress = stress_and_transform(dist, out.points, next);
    if (prev_stress - stress < kTolerance * prev_stress) {
      prev_stress = std::min(stress, prev_stress);
      break;
    }
    prev_stress = stress;
  }
  out.iterations = iter + 1;
  out.stress = prev_stress;
  const double denom = pairwise_squared_sum(dist);
  out.normalized_stress = denom > 0 ? out.stress / denom : 0.0;
  span.set_items(out.iterations);
  rs::obs::Registry::global()
      .counter("analysis.smacof_iterations")
      .add(out.iterations);
  return out;
}

}  // namespace rs::analysis
