#include "src/analysis/mds.h"

#include <cmath>

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
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += m[i * n + j] * evec[j];
      next[i] = acc;
    }
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
  // Rayleigh quotient for a signed eigenvalue.
  double rq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += m[i * n + j] * evec[j];
    rq += evec[i] * acc;
  }
  eval = rq;
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
  const std::size_t n = dist.size();
  MdsResult out;
  out.points.assign(n, Point2{});
  if (n < 2) return out;

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
  for (std::size_t i = 0; i < n; ++i) {
    out.points[i].x = evals[0] > 0 ? evecs[0][i] * std::sqrt(evals[0]) : 0.0;
    out.points[i].y = evals[1] > 0 ? evecs[1][i] * std::sqrt(evals[1]) : 0.0;
  }
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

  out.points = classical_mds(dist).points;
  double prev_stress = embedding_stress(dist, out.points);
  std::vector<Point2> next(n);
  std::size_t iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    // Guttman transform with unit weights:
    //   x_i' = (1/n) * sum_{j != i} (delta_ij / d_ij) * (x_i - x_j)
    // (row i of n^-1 B(X) X, where B(X)_ij = -delta_ij/d_ij off-diagonal
    // and the diagonal makes rows sum to zero).  Each row only reads the
    // previous iterate and writes its own slot.
    for (std::size_t i = 0; i < n; ++i) {
      double sx = 0.0, sy = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double d = point_distance(out.points[i], out.points[j]);
        const double w = d > 1e-12 ? dist.at(i, j) / d : 0.0;
        sx += w * (out.points[i].x - out.points[j].x);
        sy += w * (out.points[i].y - out.points[j].y);
      }
      next[i].x = sx / static_cast<double>(n);
      next[i].y = sy / static_cast<double>(n);
    }
    std::swap(out.points, next);
    const double stress = embedding_stress(dist, out.points);
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
