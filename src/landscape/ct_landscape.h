// CT-log root-landscape comparisons.
//
// Korzhitskii & Carlsson ("Characterizing the Root Landscape of
// Certificate Transparency Logs") treat log accepted-roots lists as trust
// stores in their own right.  Given one provider designated as "the log"
// and the rest as browsers/stores, this module computes coverage (what
// share of each store the log accepts), log-exclusive roots (accepted by
// the log, held by nobody else), and adoption lag (days from a store's
// first adoption of a root to the log's first acceptance).
//
// Like presence.h, everything operates on borrowed IdSet views plus
// caller-supplied first-seen tables.  `ct_coverage_at` in index_view.h
// assembles the three primitives below over a TrustIndex, once for both
// the `ct_coverage` wire op and the report_ct_landscape study entry
// point, which only render its result; the brute-force differential
// battery checks the op's bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/store/id_set.h"
#include "src/util/date.h"

namespace rs::landscape {

/// Coverage of one store by the log.
struct CoverageRow {
  std::size_t store_size = 0;  // |store|
  std::size_t covered = 0;     // |store ∩ log|
};

/// Signed adoption-lag aggregate between a log and one store, over the
/// certificates present in both first-seen tables.  The mean stays exact:
/// it is rendered from the integer pair (total_lag_days, matched) via
/// format_ratio, never from an accumulated double.
struct LagStats {
  std::size_t matched = 0;           // roots first seen by both sides
  std::int64_t total_lag_days = 0;   // Σ (log_first - store_first), signed
};

/// Per-certificate first-seen dates for one provider, indexed by dense
/// certificate ID (absent = never present in that provider's history for
/// the queried scope).  Built by the index_view.h adapter.
using FirstSeen = std::vector<std::optional<rs::util::Date>>;

/// Coverage of each store in `stores` by `log` (parallel output order).
std::vector<CoverageRow> coverage_rows(
    const rs::store::IdSet& log,
    const std::vector<const rs::store::IdSet*>& stores);

/// Roots the log holds that no store in `stores` holds.
std::size_t log_exclusive_count(
    const rs::store::IdSet& log,
    const std::vector<const rs::store::IdSet*>& stores);

/// Adoption lag of `log_first` relative to `store_first`: for every
/// certificate ID with a date on both sides, accumulates
/// (log date - store date) in days.  Tables may differ in length; the
/// shorter one is treated as absent past its end.
LagStats adoption_lag(const FirstSeen& log_first, const FirstSeen& store_first);

}  // namespace rs::landscape
