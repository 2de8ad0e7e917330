#include "src/analysis/staleness.h"

#include <optional>

#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace rs::analysis {

using rs::store::IdSet;
using rs::store::Scope;
using rs::util::Date;

const NssVersionIndex::Version* NssVersionIndex::current_at(Date when) const {
  const Version* best = nullptr;
  for (const auto& v : versions_) {
    if (v.date <= when) best = &v;
    else break;
  }
  return best;
}

const NssVersionIndex::Version* NssVersionIndex::closest_match(
    const IdSet& anchors) const {
  const Version* best = nullptr;
  double best_dist = 2.0;
  for (const auto& v : versions_) {
    const double d = anchors.jaccard_distance(v.tls_anchors);
    if (d < best_dist) {  // strict: ties keep the earlier version
      best_dist = d;
      best = &v;
    }
  }
  return best;
}

NssVersionIndex build_version_index(const rs::store::ProviderHistory& nss,
                                    const rs::store::MembershipTable& table) {
  rs::obs::Span span("staleness/version_index");
  const auto& lane = table.lane(nss);
  std::vector<NssVersionIndex::Version> versions;
  for (std::size_t k = 0; k < lane.size(); ++k) {
    const IdSet& tls = rs::store::in_scope(lane[k], Scope::kTls);
    if (!versions.empty() && tls == versions.back().tls_anchors) continue;
    const auto& snap = nss.snapshots()[k];
    versions.push_back({versions.size() + 1, k, snap.date, snap.version, tls});
  }
  return NssVersionIndex(std::move(versions));
}

StalenessResult derivative_staleness(const rs::store::ProviderHistory& deriv,
                                     const rs::store::MembershipTable& table,
                                     const NssVersionIndex& index,
                                     rs::exec::ThreadPool* pool) {
  rs::obs::Span stage_span("staleness/derivative");
  StalenessResult out;
  out.provider = deriv.provider();
  if (deriv.empty() || index.size() == 0) return out;
  stage_span.set_items(deriv.size());
  rs::obs::Registry::global()
      .counter("analysis.staleness_matches")
      .add(deriv.size());

  // Each snapshot matches against the read-only index independently;
  // per-snapshot slots keep the points in snapshot order.
  const auto& snaps = deriv.snapshots();
  const auto& lane = table.lane(deriv);
  std::vector<std::optional<StalenessPoint>> samples(snaps.size());
  rs::exec::parallel_for(pool, snaps.size(), [&](std::size_t k) {
    const auto& snap = snaps[k];
    const auto* matched =
        index.closest_match(rs::store::in_scope(lane[k], Scope::kTls));
    const auto* current = index.current_at(snap.date);
    if (matched == nullptr || current == nullptr) return;
    StalenessPoint p;
    p.date = snap.date;
    p.matched_version = matched->index;
    p.current_version = current->index;
    p.versions_behind =
        matched->index >= current->index
            ? 0.0
            : static_cast<double>(current->index - matched->index);
    samples[k] = p;
  });

  out.always_stale = true;
  for (const auto& p : samples) {
    if (!p) continue;
    if (p->versions_behind == 0.0) out.always_stale = false;
    out.points.push_back(*p);
  }

  // Time-weighted integral (piecewise-constant between samples).
  if (out.points.size() == 1) {
    out.avg_versions_behind = out.points[0].versions_behind;
  } else if (out.points.size() > 1) {
    double integral = 0.0;
    double total_days = 0.0;
    for (std::size_t i = 0; i + 1 < out.points.size(); ++i) {
      const double span =
          static_cast<double>(out.points[i + 1].date - out.points[i].date);
      integral += out.points[i].versions_behind * span;
      total_days += span;
    }
    out.avg_versions_behind = total_days > 0 ? integral / total_days : 0.0;
  }
  return out;
}

}  // namespace rs::analysis
