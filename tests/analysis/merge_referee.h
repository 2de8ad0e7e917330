// Sorted-merge referee for the membership-table analyses.
//
// Each function recomputes one analysis from the snapshots themselves,
// with FingerprintSet linear merges over sorted 32-byte digests
// (tests/referee/fingerprint_set.h): no interner, no IdSet, no membership
// table.  intern_equivalence_test.cpp requires the table engine to
// reproduce these results bit for bit.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/cadence.h"
#include "src/analysis/churn.h"
#include "src/analysis/diffs.h"
#include "src/analysis/exclusive.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/staleness.h"
#include "src/store/database.h"
#include "src/util/stats.h"
#include "tests/referee/fingerprint_set.h"

namespace rs::analysis::referee {

using rs::referee::all_fingerprints;
using rs::referee::FingerprintSet;
using rs::referee::tls_anchors;

/// Row-major distances between the labelled snapshots of `db`.
inline std::vector<double> jaccard_values(
    const rs::store::StoreDatabase& db, const std::vector<SnapshotRef>& labels,
    SetKind kind) {
  std::vector<FingerprintSet> sets;
  for (const auto& label : labels) {
    const auto& snap =
        db.find(label.provider)->snapshots()[label.provider_index];
    sets.push_back(kind == SetKind::kAllCertificates ? all_fingerprints(snap)
                                                     : tls_anchors(snap));
  }
  const std::size_t n = sets.size();
  std::vector<double> values(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = sets[i].jaccard_distance(sets[j]);
      values[i * n + j] = d;
      values[j * n + i] = d;
    }
  }
  return values;
}

/// One NSS substantial version, held as digests.
struct Version {
  std::size_t index = 0;     // 1-based
  std::size_t snapshot = 0;  // position in the NSS history
  rs::util::Date date;
  FingerprintSet tls;
};

/// The first snapshot plus every snapshot whose TLS set differs from its
/// predecessor's.
inline std::vector<Version> substantial_versions(
    const rs::store::ProviderHistory& nss) {
  std::vector<Version> versions;
  for (std::size_t k = 0; k < nss.size(); ++k) {
    const auto& snap = nss.snapshots()[k];
    FingerprintSet tls = tls_anchors(snap);
    if (!versions.empty() && tls == versions.back().tls) continue;
    versions.push_back({versions.size() + 1, k, snap.date, std::move(tls)});
  }
  return versions;
}

/// Jaccard-closest version, ties toward the earlier one; nullptr if none.
inline const Version* closest_match(const std::vector<Version>& versions,
                                    const FingerprintSet& anchors) {
  const Version* best = nullptr;
  double best_dist = 2.0;
  for (const auto& v : versions) {
    const double d = anchors.jaccard_distance(v.tls);
    if (d < best_dist) {
      best_dist = d;
      best = &v;
    }
  }
  return best;
}

/// Staleness samples: each snapshot's match and NSS's version at its date.
inline std::vector<StalenessPoint> staleness_points(
    const rs::store::ProviderHistory& deriv,
    const std::vector<Version>& versions) {
  std::vector<StalenessPoint> points;
  for (const auto& snap : deriv.snapshots()) {
    const auto* matched = closest_match(versions, tls_anchors(snap));
    const Version* current = nullptr;
    for (const auto& v : versions) {
      if (v.date <= snap.date) current = &v;
    }
    if (matched == nullptr || current == nullptr) continue;
    const double behind =
        matched->index >= current->index
            ? 0.0
            : static_cast<double>(current->index - matched->index);
    points.push_back({snap.date, matched->index, current->index, behind});
  }
  return points;
}

inline DerivativeDiffSeries diffs(const rs::store::ProviderHistory& deriv,
                                  const rs::store::ProviderHistory& nss,
                                  const std::vector<Version>& versions) {
  DerivativeDiffSeries out;
  out.provider = deriv.provider();
  FingerprintSet ever_any;
  FingerprintSet ever_tls;
  std::map<rs::crypto::Sha256Digest, rs::util::Date> first_tls;
  for (const auto& snap : nss.snapshots()) {
    ever_any = ever_any.set_union(all_fingerprints(snap));
    const auto tls = tls_anchors(snap);
    ever_tls = ever_tls.set_union(tls);
    for (const auto& fp : tls.items()) first_tls.emplace(fp, snap.date);
  }
  for (const auto& snap : deriv.snapshots()) {
    const auto deriv_tls = tls_anchors(snap);
    const auto* matched = closest_match(versions, deriv_tls);
    if (matched == nullptr) continue;
    SnapshotDiff diff;
    diff.date = snap.date;
    diff.matched_version = matched->index;
    const auto added = deriv_tls.difference(matched->tls);
    for (const auto& fp : added.items()) {
      AddCategory cat = AddCategory::kOther;
      if (!ever_any.contains(fp)) {
        cat = AddCategory::kNonNssRoot;
      } else if (!ever_tls.contains(fp)) {
        cat = AddCategory::kEmailOnlyRoot;
      } else if (first_tls.at(fp) <= matched->date) {
        cat = AddCategory::kReAddedRoot;
      }
      ++diff.adds[static_cast<std::size_t>(cat)];
    }
    const auto& version_snap = nss.snapshots()[matched->snapshot];
    const auto removed = matched->tls.difference(deriv_tls);
    for (const auto& fp : removed.items()) {
      const auto* entry = version_snap.find(fp);
      const bool fallout =
          entry != nullptr && entry->is_partially_distrusted_tls();
      ++diff.removes[static_cast<std::size_t>(
          fallout ? RemoveCategory::kPartialDistrustFallout
                  : RemoveCategory::kCustomRemoval)];
    }
    if (diff.added_total() + diff.removed_total() > 0) {
      out.ever_deviates = true;
    }
    out.points.push_back(diff);
  }
  return out;
}

/// Each program's latest TLS set minus every other program's ever-TLS
/// union (programs absent from `db` skipped).
inline std::vector<ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const std::vector<std::string>& programs) {
  std::vector<std::string> names;
  for (const auto& name : programs) {
    const auto* history = db.find(name);
    if (history != nullptr && !history->empty()) names.push_back(name);
  }
  std::vector<ExclusiveSet> out;
  for (const auto& name : names) {
    FingerprintSet others;
    for (const auto& other : names) {
      if (other == name) continue;
      for (const auto& snap : db.find(other)->snapshots()) {
        others = others.set_union(tls_anchors(snap));
      }
    }
    const auto latest = tls_anchors(db.find(name)->back());
    out.push_back({name, latest.difference(others).items()});
  }
  return out;
}

/// Table 2's "# Uniq": the first snapshot plus every snapshot whose
/// certificate set differs from its predecessor's.
inline std::size_t store_states(const rs::store::ProviderHistory& history) {
  std::size_t states = 0;
  FingerprintSet prev;
  bool first = true;
  for (const auto& snap : history.snapshots()) {
    auto prints = all_fingerprints(snap);
    if (first || !(prints == prev)) ++states;
    prev = std::move(prints);
    first = false;
  }
  return states;
}

/// §4 churn: adds, removes and change fraction against the predecessor.
inline ChurnSeries churn_series(const rs::store::ProviderHistory& history) {
  ChurnSeries out;
  out.provider = history.provider();
  if (history.empty()) return out;
  FingerprintSet previous;
  bool first = true;
  double fraction_sum = 0;
  for (const auto& snap : history.snapshots()) {
    const auto current = all_fingerprints(snap);
    ChurnPoint p;
    p.date = snap.date;
    p.version = snap.version;
    if (!first) {
      p.added = current.difference(previous).size();
      p.removed = previous.difference(current).size();
      const std::size_t uni = current.union_size(previous);
      p.change_fraction =
          uni == 0 ? 0.0
                   : static_cast<double>(p.added + p.removed) /
                         static_cast<double>(uni);
    }
    fraction_sum += p.change_fraction;
    out.points.push_back(std::move(p));
    previous = current;
    first = false;
  }
  out.mean_change_fraction =
      fraction_sum / static_cast<double>(out.points.size());
  return out;
}

/// §6.1 update cadence over certificate sets.
inline UpdateCadence update_cadence(const rs::store::ProviderHistory& history) {
  UpdateCadence out;
  out.provider = history.provider();
  out.snapshots = history.size();
  if (history.size() < 2) {
    out.substantial_updates = history.size();
    return out;
  }
  std::vector<double> intervals;
  std::vector<double> substantial_intervals;
  FingerprintSet previous = all_fingerprints(history.front());
  rs::util::Date last_substantial = history.front().date;
  out.substantial_updates = 1;
  for (std::size_t i = 1; i < history.size(); ++i) {
    const auto& snap = history.snapshots()[i];
    intervals.push_back(
        static_cast<double>(snap.date - history.snapshots()[i - 1].date));
    auto current = all_fingerprints(snap);
    if (current == previous) {
      ++out.noop_updates;
    } else {
      ++out.substantial_updates;
      substantial_intervals.push_back(
          static_cast<double>(snap.date - last_substantial));
      last_substantial = snap.date;
      previous = std::move(current);
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

}  // namespace rs::analysis::referee
