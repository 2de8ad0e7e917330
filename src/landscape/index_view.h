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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
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

}  // namespace rs::landscape
