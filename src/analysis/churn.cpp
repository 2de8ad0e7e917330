#include "src/analysis/churn.h"

#include <algorithm>
#include <cmath>

namespace rs::analysis {

ChurnSeries churn_series(const rs::store::ProviderHistory& history,
                         const rs::store::MembershipTable& table) {
  ChurnSeries out;
  out.provider = history.provider();
  if (history.empty()) return out;

  const auto& lane = table.lane(history);
  double fraction_sum = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto& snap = history.snapshots()[i];
    ChurnPoint p;
    p.date = snap.date;
    p.version = snap.version;
    if (i > 0) {
      // Exact integer counts, so the fraction is bit-identical to a merge
      // over sorted digests.
      const auto& cur =
          rs::store::in_scope(lane[i], rs::store::Scope::kPresent);
      const auto& prev =
          rs::store::in_scope(lane[i - 1], rs::store::Scope::kPresent);
      const std::size_t both = cur.intersection_size(prev);
      p.added = cur.size() - both;
      p.removed = prev.size() - both;
      const std::size_t uni = both + p.added + p.removed;
      p.change_fraction =
          uni == 0 ? 0.0
                   : static_cast<double>(p.added + p.removed) /
                         static_cast<double>(uni);
    }
    fraction_sum += p.change_fraction;
    out.points.push_back(std::move(p));
  }
  out.mean_change_fraction =
      fraction_sum / static_cast<double>(out.points.size());
  return out;
}

std::vector<ChurnOutlier> find_outliers(const std::vector<ChurnSeries>& series,
                                        double sigmas,
                                        std::size_t min_change) {
  std::vector<ChurnOutlier> out;
  for (const auto& s : series) {
    if (s.points.size() < 3) continue;
    // Provider-local mean/stddev of the change fraction.
    double mean = 0;
    for (const auto& p : s.points) mean += p.change_fraction;
    mean /= static_cast<double>(s.points.size());
    double var = 0;
    for (const auto& p : s.points) {
      var += (p.change_fraction - mean) * (p.change_fraction - mean);
    }
    var /= static_cast<double>(s.points.size());
    const double sd = std::sqrt(var);
    if (sd <= 0) continue;

    for (const auto& p : s.points) {
      if (p.total_change() < min_change) continue;
      const double score = (p.change_fraction - mean) / sd;
      if (score >= sigmas) {
        out.push_back(ChurnOutlier{s.provider, p, score});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChurnOutlier& a, const ChurnOutlier& b) {
              return a.score > b.score;
            });
  return out;
}

}  // namespace rs::analysis
