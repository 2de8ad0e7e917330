// Header-only adapter: TrustIndex → landscape presence views.
//
// rs_landscape deliberately does not link rs_query (the engine inside
// rs_query calls INTO the landscape computations, so a library dependency
// in the other direction would be a cycle).  These inline helpers are the
// bridge: any translation unit that already links rs_query (engine.cpp,
// study.cpp, tests, benches) can include this header to resolve an index
// into the borrowed IdSet views and first-seen tables the landscape
// functions consume.  Views borrow from the index and stay valid for its
// lifetime.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/landscape/ct_landscape.h"
#include "src/landscape/presence.h"
#include "src/query/trust_index.h"
#include "src/store/id_set.h"
#include "src/util/date.h"

namespace rs::landscape {

/// Every covered provider's resolved store at one date, provider-name
/// order.  `providers`/`sets` are parallel; providers whose coverage
/// excludes `date` land in `not_covered` instead (also name order).
struct PresenceView {
  std::vector<std::string> providers;
  std::vector<const rs::store::IdSet*> sets;
  std::vector<std::string> not_covered;
};

inline PresenceView presence_at(const rs::query::TrustIndex& index,
                                rs::util::Date date,
                                rs::query::Scope scope) {
  PresenceView view;
  for (const auto& name : index.providers()) {
    const auto resolved = index.store_at(name, date, scope);
    if (resolved) {
      view.providers.push_back(name);
      view.sets.push_back(resolved->roots);
    } else {
      view.not_covered.push_back(name);
    }
  }
  return view;
}

/// Per-provider first-seen tables over the whole history: for each
/// provider (index provider-name order) and each dense certificate ID, the
/// date of the first snapshot whose `scope` set holds the certificate (the
/// `added` date of its earliest presence interval), or nullopt if it never
/// appears.  One word walk over each provider's date-ordered sets: a bit's
/// first appearance gives its first-seen date.
inline std::vector<FirstSeen> first_seen_tables(
    const rs::query::TrustIndex& index, rs::query::Scope scope) {
  const auto names = index.providers();
  const std::size_t universe = index.interner().size();
  std::vector<FirstSeen> tables(names.size(), FirstSeen(universe));
  std::vector<std::uint64_t> seen;
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto dates = index.snapshot_dates(names[p]);
    const auto sets = index.history_sets(names[p], scope);
    seen.clear();
    for (std::size_t k = 0; k < sets.size(); ++k) {
      const auto& words = sets[k].words();
      if (seen.size() < words.size()) seen.resize(words.size(), 0);
      for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t fresh = words[w] & ~seen[w]; fresh != 0;
             fresh &= fresh - 1) {
          tables[p][w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(fresh))] = dates[k];
        }
        seen[w] |= words[w];
      }
    }
  }
  return tables;
}

/// One store the log is compared with: how much of the store the log
/// accepts at the date, and how far the log's adoption of the roots both
/// ever carried lags the store's over the whole history.
struct CtStoreRow {
  std::string name;
  CoverageRow coverage;
  LagStats lag;
};

/// One log's CT-coverage answer at one date.
struct CtCoverage {
  rs::query::StoreView log;        // the log's resolved store
  std::size_t log_exclusive = 0;   // roots no covered store holds
  std::vector<CtStoreRow> stores;  // covered stores, in `stores` order
  std::vector<std::string> not_covered;  // stores the date does not resolve
};

/// Compares the log `log` with each of `stores` at `date`: the log's
/// coverage of every store whose coverage includes the date, its
/// log-exclusive count against those stores, and its adoption lag against
/// each from `first_seen` (first_seen_tables(index, scope)).  nullopt when
/// the date does not resolve the log.  Both the `ct_coverage` wire op and
/// the `ct_landscape` report call this; they only render its result.
inline std::optional<CtCoverage> ct_coverage_at(
    const rs::query::TrustIndex& index, std::string_view log,
    rs::util::Date date, rs::query::Scope scope,
    const std::vector<std::string>& stores,
    const std::vector<FirstSeen>& first_seen) {
  const auto log_view = index.store_at(log, date, scope);
  if (!log_view) return std::nullopt;
  CtCoverage out{*log_view, 0, {}, {}};
  std::vector<const rs::store::IdSet*> covered;
  for (const auto& name : stores) {
    const auto view = index.store_at(name, date, scope);
    if (view) {
      out.stores.push_back({name, {}, {}});
      covered.push_back(view->roots);
    } else {
      out.not_covered.push_back(name);
    }
  }
  const auto rows = coverage_rows(*log_view->roots, covered);
  out.log_exclusive = log_exclusive_count(*log_view->roots, covered);

  // first_seen is in index provider order, which is name order.
  const auto names = index.providers();
  const auto first_seen_of = [&](std::string_view name) -> const FirstSeen& {
    return first_seen[static_cast<std::size_t>(
        std::lower_bound(names.begin(), names.end(), name) - names.begin())];
  };
  const FirstSeen& log_first = first_seen_of(log);
  for (std::size_t i = 0; i < out.stores.size(); ++i) {
    CtStoreRow& row = out.stores[i];
    row.coverage = rows[i];
    row.lag = adoption_lag(log_first, first_seen_of(row.name));
  }
  return out;
}

}  // namespace rs::landscape
