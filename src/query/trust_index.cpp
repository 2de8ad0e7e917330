#include "src/query/trust_index.h"

#include <algorithm>
#include <utility>

#include "src/exec/thread_pool.h"
#include "src/obs/span.h"

namespace rs::query {

const char* to_string(TrustAnswer a) noexcept {
  switch (a) {
    case TrustAnswer::kTrusted: return "trusted";
    case TrustAnswer::kUntrusted: return "untrusted";
    case TrustAnswer::kNotCovered: return "not_covered";
  }
  return "?";
}

std::vector<std::vector<TrustInterval>> TrustIndex::derive_intervals(
    const std::vector<rs::util::Date>& dates,
    const std::vector<rs::store::IdSet>& sets, std::size_t universe) {
  std::vector<std::vector<TrustInterval>> intervals(universe);
  // `open[id]` holds the start of the run the certificate is currently
  // in, if any; closing a run appends one interval.
  std::vector<std::optional<rs::util::Date>> open(universe);
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const rs::store::IdSet& members = sets[k];
    if (k == 0) {
      for (const std::uint32_t id : members.ids()) open[id] = dates[k];
    } else {
      const rs::store::IdSet& prev = sets[k - 1];
      for (const std::uint32_t id : members.difference(prev).ids()) {
        open[id] = dates[k];
      }
      for (const std::uint32_t id : prev.difference(members).ids()) {
        intervals[id].push_back({*open[id], dates[k]});
        open[id].reset();
      }
    }
  }
  for (std::uint32_t id = 0; id < universe; ++id) {
    if (open[id]) intervals[id].push_back({*open[id], std::nullopt});
  }
  return intervals;
}

void TrustIndex::build_provider(const rs::store::ProviderHistory& history,
                                const std::vector<rs::store::ScopeSets>& rows,
                                std::size_t universe, ProviderData& out) {
  // Collapse to distinct dates: for equal dates the later snapshot wins,
  // mirroring ProviderHistory::at (upper_bound resolution).
  const auto& snapshots = history.snapshots();
  std::vector<std::size_t> resolved;
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    if (!resolved.empty() &&
        snapshots[resolved.back()].date == snapshots[k].date) {
      resolved.back() = k;
    } else {
      resolved.push_back(k);
    }
  }

  out.dates.reserve(resolved.size());
  out.versions.reserve(resolved.size());
  for (const std::size_t k : resolved) {
    out.dates.push_back(snapshots[k].date);
    out.versions.push_back(snapshots[k].version);
  }
  for (std::size_t s = 0; s < kScopeCount; ++s) {
    out.sets[s].reserve(resolved.size());
    for (const std::size_t k : resolved) out.sets[s].push_back(rows[k][s]);
    out.intervals[s] = derive_intervals(out.dates, out.sets[s], universe);
  }
}

TrustIndex TrustIndex::build(const rs::store::StoreDatabase& db,
                             const rs::store::CertInterner& interner,
                             rs::exec::ThreadPool* pool) {
  return build(db, rs::store::MembershipTable::build(db, interner, pool),
               pool);
}

TrustIndex TrustIndex::build(const rs::store::StoreDatabase& db,
                             const rs::store::MembershipTable& table,
                             rs::exec::ThreadPool* pool) {
  rs::obs::Span span("query/build_index");
  TrustIndex index;
  index.interner_ = table.interner();

  // Lay out providers in name order (the histories() map order), then
  // fill each lane independently — disjoint writes, so the parallel and
  // serial builds are identical.
  std::vector<const rs::store::ProviderHistory*> histories;
  for (const auto& [name, history] : db.histories()) {
    if (history.empty()) continue;
    index.by_name_.emplace(name, index.providers_.size());
    index.providers_.emplace_back();
    index.providers_.back().name = name;
    histories.push_back(&history);
  }
  const std::size_t universe = index.interner_.size();
  rs::exec::parallel_for(pool, index.providers_.size(), [&](std::size_t i) {
    build_provider(*histories[i], table.lane(*histories[i]), universe,
                   index.providers_[i]);
  });

  std::size_t intervals = 0;
  for (const auto& p : index.providers_) {
    index.resolutions_ += p.dates.size();
    for (const auto& per_scope : p.intervals) {
      for (const auto& runs : per_scope) intervals += runs.size();
    }
  }
  span.set_items(intervals);
  return index;
}

const TrustIndex::ProviderData* TrustIndex::find(
    std::string_view provider) const {
  const auto it = by_name_.find(provider);
  if (it == by_name_.end()) return nullptr;
  return &providers_[it->second];
}

std::optional<std::size_t> TrustIndex::resolve(const ProviderData& p,
                                               rs::util::Date date) {
  if (p.dates.empty() || date < p.dates.front() || date > p.dates.back()) {
    return std::nullopt;
  }
  const auto it = std::upper_bound(p.dates.begin(), p.dates.end(), date);
  return static_cast<std::size_t>(it - p.dates.begin()) - 1;
}

std::vector<std::string> TrustIndex::providers() const {
  std::vector<std::string> names;
  names.reserve(providers_.size());
  for (const auto& p : providers_) names.push_back(p.name);
  return names;
}

bool TrustIndex::has_provider(std::string_view provider) const {
  return find(provider) != nullptr;
}

std::optional<ProviderCoverage> TrustIndex::coverage(
    std::string_view provider) const {
  const ProviderData* p = find(provider);
  if (p == nullptr || p->dates.empty()) return std::nullopt;
  return ProviderCoverage{p->dates.front(), p->dates.back()};
}

std::vector<rs::util::Date> TrustIndex::snapshot_dates(
    std::string_view provider) const {
  const ProviderData* p = find(provider);
  if (p == nullptr) return {};
  return p->dates;
}

TrustAnswer TrustIndex::is_trusted(const rs::crypto::Sha256Digest& fp,
                                   std::string_view provider,
                                   rs::util::Date date, Scope scope) const {
  const ProviderData* p = find(provider);
  if (p == nullptr) return TrustAnswer::kNotCovered;
  if (!resolve(*p, date)) return TrustAnswer::kNotCovered;
  const auto id = interner_.id_of(fp);
  if (!id) return TrustAnswer::kUntrusted;
  // Loaded indexes size interval tables to the highest ID with runs.
  const auto& table = p->intervals[static_cast<std::size_t>(scope)];
  if (*id >= table.size()) return TrustAnswer::kUntrusted;
  const auto& runs = table[*id];
  // Last interval starting on or before `date`.
  const auto it = std::upper_bound(
      runs.begin(), runs.end(), date,
      [](rs::util::Date d, const TrustInterval& iv) { return d < iv.added; });
  if (it == runs.begin()) return TrustAnswer::kUntrusted;
  const TrustInterval& run = *(it - 1);
  const bool inside = !run.removed.has_value() || date < *run.removed;
  return inside ? TrustAnswer::kTrusted : TrustAnswer::kUntrusted;
}

std::vector<std::string> TrustIndex::providers_trusting(
    const rs::crypto::Sha256Digest& fp, rs::util::Date date, Scope scope,
    std::vector<std::string>* not_covered) const {
  std::vector<std::string> trusting;
  for (const auto& p : providers_) {
    switch (is_trusted(fp, p.name, date, scope)) {
      case TrustAnswer::kTrusted:
        trusting.push_back(p.name);
        break;
      case TrustAnswer::kNotCovered:
        if (not_covered != nullptr) not_covered->push_back(p.name);
        break;
      case TrustAnswer::kUntrusted:
        break;
    }
  }
  return trusting;
}

std::optional<StoreView> TrustIndex::store_at(std::string_view provider,
                                              rs::util::Date date,
                                              Scope scope) const {
  const ProviderData* p = find(provider);
  if (p == nullptr) return std::nullopt;
  const auto k = resolve(*p, date);
  if (!k) return std::nullopt;
  StoreView view;
  view.provider = p->name;
  view.version = p->versions[*k];
  view.snapshot_date = p->dates[*k];
  view.roots = &p->sets[static_cast<std::size_t>(scope)][*k];
  return view;
}

std::optional<StoreDiff> TrustIndex::diff(std::string_view provider,
                                          rs::util::Date date_a,
                                          rs::util::Date date_b,
                                          Scope scope) const {
  const auto from = store_at(provider, date_a, scope);
  const auto to = store_at(provider, date_b, scope);
  if (!from || !to) return std::nullopt;
  StoreDiff d;
  d.from = *from;
  d.to = *to;
  d.added = to->roots->difference(*from->roots);
  d.removed = from->roots->difference(*to->roots);
  return d;
}

std::vector<LineageSpan> TrustIndex::lineage(
    const rs::crypto::Sha256Digest& fp, Scope scope) const {
  std::vector<LineageSpan> spans;
  const auto id = interner_.id_of(fp);
  if (!id) return spans;
  for (const auto& p : providers_) {
    const auto& table = p.intervals[static_cast<std::size_t>(scope)];
    if (*id >= table.size()) continue;
    for (const auto& run : table[*id]) {
      spans.push_back({p.name, run});
    }
  }
  return spans;
}

}  // namespace rs::query
