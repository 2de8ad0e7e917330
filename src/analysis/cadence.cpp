#include "src/analysis/cadence.h"

#include <vector>

#include "src/util/stats.h"

namespace rs::analysis {

UpdateCadence update_cadence(const rs::store::ProviderHistory& history,
                             const rs::store::MembershipTable& table) {
  UpdateCadence out;
  out.provider = history.provider();
  out.snapshots = history.size();
  if (history.size() < 2) {
    out.substantial_updates = history.size();
    return out;
  }

  const auto& lane = table.lane(history);
  const auto present = [&lane](std::size_t i) -> const rs::store::IdSet& {
    return rs::store::in_scope(lane[i], rs::store::Scope::kPresent);
  };
  std::vector<double> intervals;
  std::vector<double> substantial_intervals;
  rs::util::Date last_substantial = history.front().date;
  out.substantial_updates = 1;  // the first snapshot introduces the store

  for (std::size_t i = 1; i < history.size(); ++i) {
    const auto& snap = history.snapshots()[i];
    intervals.push_back(
        static_cast<double>(snap.date - history.snapshots()[i - 1].date));
    if (present(i) == present(i - 1)) {
      ++out.noop_updates;
    } else {
      ++out.substantial_updates;
      substantial_intervals.push_back(
          static_cast<double>(snap.date - last_substantial));
      last_substantial = snap.date;
    }
  }

  out.mean_interval_days = rs::util::mean(intervals);
  out.median_interval_days = rs::util::median(intervals);
  out.mean_substantial_interval_days = rs::util::mean(substantial_intervals);
  const double years =
      rs::util::years_between(history.first_date(), history.last_date());
  out.substantial_per_year =
      years > 0 ? static_cast<double>(out.substantial_updates) / years : 0;
  return out;
}

}  // namespace rs::analysis
