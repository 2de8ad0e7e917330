#include "src/analysis/exclusive.h"

#include <vector>

#include "src/landscape/presence.h"
#include "src/store/id_set.h"

namespace rs::analysis {

std::vector<ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const rs::store::MembershipTable& table,
    const std::vector<std::string>& programs) {
  // Candidates: each program's latest TLS row.  Held: the OR of its TLS
  // rows, the ever-TLS-trusted set.  The landscape presence-vector
  // primitive then answers "latest \ union of the others' ever" for every
  // program in one prefix/suffix union pass (docs/LANDSCAPE.md).
  std::vector<std::string> names;
  std::vector<const rs::store::IdSet*> candidates;
  std::vector<rs::store::IdSet> held;
  for (const auto& name : programs) {
    const auto* history = db.find(name);
    if (history == nullptr || history->empty()) continue;
    const auto& lane = table.lane(*history);
    rs::store::IdSet ever;
    for (const auto& row : lane) {
      ever |= rs::store::in_scope(row, rs::store::Scope::kTls);
    }
    names.push_back(name);
    candidates.push_back(
        &rs::store::in_scope(lane.back(), rs::store::Scope::kTls));
    held.push_back(std::move(ever));
  }
  std::vector<const rs::store::IdSet*> held_views;
  for (const auto& set : held) held_views.push_back(&set);
  const auto exclusive = rs::landscape::exclusive_sets(candidates, held_views);

  std::vector<ExclusiveSet> out;
  out.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    // IdSet::ids() ascends in sorted-digest order — the order the golden
    // Table 6 bytes are pinned on.
    out.push_back(
        {names[i], table.interner().materialize(exclusive[i]).items()});
  }
  return out;
}

}  // namespace rs::analysis
