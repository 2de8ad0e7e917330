#include "src/query/trust_index.h"

#include <algorithm>
#include <bit>
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

std::vector<std::vector<TrustInterval>> TrustIndex::derive_intervals(
    const std::vector<rs::util::Date>& dates,
    const std::vector<rs::store::IdSet>& sets, std::size_t universe) {
  std::vector<std::vector<TrustInterval>> intervals(universe);
  // `opened[id]` is the start of the run the certificate is in, which is
  // meaningful while the previous set holds it.
  std::vector<rs::util::Date> opened(universe);
  static const std::vector<std::uint64_t> kNoWords;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    // Sets may differ in word count (a loaded set is trimmed to its last
    // non-zero word), so a missing tail word reads as zero.
    const auto& cur = sets[k].words();
    const auto& prev = k == 0 ? kNoWords : sets[k - 1].words();
    const std::size_t words = std::max(cur.size(), prev.size());
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t now = w < cur.size() ? cur[w] : 0;
      const std::uint64_t before = w < prev.size() ? prev[w] : 0;
      const std::size_t base = w * 64;
      for (std::uint64_t gained = now & ~before; gained != 0;
           gained &= gained - 1) {
        opened[base + static_cast<std::size_t>(std::countr_zero(gained))] =
            dates[k];
      }
      for (std::uint64_t lost = before & ~now; lost != 0; lost &= lost - 1) {
        const std::size_t id =
            base + static_cast<std::size_t>(std::countr_zero(lost));
        intervals[id].push_back({opened[id], dates[k]});
      }
    }
  }
  if (!sets.empty()) {
    const auto& last = sets.back().words();
    for (std::size_t w = 0; w < last.size(); ++w) {
      for (std::uint64_t open = last[w]; open != 0; open &= open - 1) {
        const std::size_t id =
            w * 64 + static_cast<std::size_t>(std::countr_zero(open));
        intervals[id].push_back({opened[id], std::nullopt});
      }
    }
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
  return build(db, rs::store::MembershipTable::build(db, interner, pool));
}

TrustIndex TrustIndex::build(const rs::store::StoreDatabase& db,
                             const rs::store::MembershipTable& table) {
  rs::obs::Span span("query/build_index");
  TrustIndex index;
  index.interner_ = table.interner();

  // Lay out providers in name order (the histories() map order).
  const std::size_t universe = index.interner_.size();
  for (const auto& [name, history] : db.histories()) {
    if (history.empty()) continue;
    index.by_name_.emplace(name, index.providers_.size());
    auto& provider = index.providers_.emplace_back();
    provider.name = name;
    build_provider(history, table.lane(history), universe, provider);
  }

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
