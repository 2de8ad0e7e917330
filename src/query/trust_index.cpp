#include "src/query/trust_index.h"

#include <algorithm>
#include <utility>

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

std::vector<TrustInterval> TrustIndex::intervals_of(
    std::span<const rs::util::Date> dates,
    std::span<const rs::store::IdSet> sets, std::uint32_t id) {
  std::vector<TrustInterval> runs;
  bool open = false;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const bool held = sets[k].contains(id);
    if (held && !open) runs.push_back({dates[k], std::nullopt});
    if (!held && open) runs.back().removed = dates[k];
    open = held;
  }
  return runs;
}

void TrustIndex::build_provider(const rs::store::ProviderHistory& history,
                                const std::vector<rs::store::ScopeSets>& rows,
                                ProviderData& out) {
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
  }
}

TrustIndex TrustIndex::build(const rs::store::StoreDatabase& db,
                             const rs::store::CertInterner& interner,
                             rs::exec::ThreadPool* pool) {
  return build(db, rs::store::MembershipTable::build(db, interner, pool));
}

TrustIndex TrustIndex::build(const rs::store::StoreDatabase& db,
                             const rs::store::MembershipTable& table) {
  rs::obs::Span span("query/build_index");
  TrustIndex index;
  index.interner_ = table.interner();

  // Lay out providers in name order (the histories() map order).
  for (const auto& [name, history] : db.histories()) {
    if (history.empty()) continue;
    index.by_name_.emplace(name, index.providers_.size());
    auto& provider = index.providers_.emplace_back();
    provider.name = name;
    build_provider(history, table.lane(history), provider);
    index.resolutions_ += provider.dates.size();
  }
  span.set_items(index.resolutions_);
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

std::span<const rs::store::IdSet> TrustIndex::history_sets(
    std::string_view provider, Scope scope) const {
  const ProviderData* p = find(provider);
  if (p == nullptr) return {};
  return p->sets[static_cast<std::size_t>(scope)];
}

TrustAnswer TrustIndex::is_trusted(const rs::crypto::Sha256Digest& fp,
                                   std::string_view provider,
                                   rs::util::Date date, Scope scope) const {
  const ProviderData* p = find(provider);
  if (p == nullptr) return TrustAnswer::kNotCovered;
  const auto k = resolve(*p, date);
  if (!k) return TrustAnswer::kNotCovered;
  const auto id = interner_.id_of(fp);
  if (!id) return TrustAnswer::kUntrusted;
  // The resolved snapshot holds the certificate exactly when `date` lies
  // inside one of its presence runs.
  return p->sets[static_cast<std::size_t>(scope)][*k].contains(*id)
             ? TrustAnswer::kTrusted
             : TrustAnswer::kUntrusted;
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
    for (const TrustInterval& run :
         intervals_of(p.dates, p.sets[static_cast<std::size_t>(scope)], *id)) {
      spans.push_back({p.name, run});
    }
  }
  return spans;
}

}  // namespace rs::query
