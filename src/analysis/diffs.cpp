#include "src/analysis/diffs.h"

#include <optional>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace rs::analysis {

using rs::store::IdSet;
using rs::store::in_scope;
using rs::store::Scope;
using rs::util::Date;

const char* to_string(AddCategory c) noexcept {
  switch (c) {
    case AddCategory::kNonNssRoot:
      return "non-NSS root";
    case AddCategory::kEmailOnlyRoot:
      return "email-only root";
    case AddCategory::kReAddedRoot:
      return "re-added root";
    case AddCategory::kOther:
      return "other";
  }
  return "?";
}

const char* to_string(RemoveCategory c) noexcept {
  switch (c) {
    case RemoveCategory::kPartialDistrustFallout:
      return "partial-distrust fallout";
    case RemoveCategory::kCustomRemoval:
      return "custom removal";
  }
  return "?";
}

std::size_t SnapshotDiff::added_total() const noexcept {
  std::size_t n = 0;
  for (auto v : adds) n += v;
  return n;
}
std::size_t SnapshotDiff::removed_total() const noexcept {
  std::size_t n = 0;
  for (auto v : removes) n += v;
  return n;
}

DerivativeDiffSeries derivative_diffs(const rs::store::ProviderHistory& deriv,
                                      const rs::store::ProviderHistory& nss,
                                      const rs::store::MembershipTable& table,
                                      const NssVersionIndex& index) {
  rs::obs::Span span("diffs/derivative");
  DerivativeDiffSeries out;
  out.provider = deriv.provider();

  // NSS-ever sets (ORs of the NSS rows) and first-TLS dates, for
  // categorization.
  const auto& nss_lane = table.lane(nss);
  IdSet nss_ever_any;
  IdSet nss_ever_tls;
  std::vector<std::optional<Date>> first_tls_date(table.interner().size());
  for (std::size_t k = 0; k < nss_lane.size(); ++k) {
    const IdSet& tls = in_scope(nss_lane[k], Scope::kTls);
    for (const std::uint32_t id : tls.difference(nss_ever_tls).ids()) {
      first_tls_date[id] = nss.snapshots()[k].date;
    }
    nss_ever_tls |= tls;
    nss_ever_any |= in_scope(nss_lane[k], Scope::kPresent);
  }

  // Each derivative snapshot diffs against its matched version, in
  // snapshot order.
  const auto& snaps = deriv.snapshots();
  const auto& lane = table.lane(deriv);
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    const IdSet& deriv_tls = in_scope(lane[k], Scope::kTls);
    const auto* matched = index.closest_match(deriv_tls);
    if (matched == nullptr) continue;

    SnapshotDiff diff;
    diff.date = snaps[k].date;
    diff.matched_version = matched->index;

    for (const std::uint32_t id :
         deriv_tls.difference(matched->tls_anchors).ids()) {
      AddCategory cat;
      if (!nss_ever_any.contains(id)) {
        cat = AddCategory::kNonNssRoot;
      } else if (!nss_ever_tls.contains(id)) {
        cat = AddCategory::kEmailOnlyRoot;
      } else {
        cat = *first_tls_date[id] <= matched->date ? AddCategory::kReAddedRoot
                                                   : AddCategory::kOther;
      }
      ++diff.adds[static_cast<std::size_t>(cat)];
    }

    // Which matched-version entries carry partial distrust?  The version's
    // own snapshot holds the trust bits (not another one of the same date).
    const auto& version_snap = nss.snapshots()[matched->snapshot];
    for (const std::uint32_t id :
         matched->tls_anchors.difference(deriv_tls).ids()) {
      const auto* entry = version_snap.find(table.interner().digest_of(id));
      const RemoveCategory cat =
          entry != nullptr && entry->is_partially_distrusted_tls()
              ? RemoveCategory::kPartialDistrustFallout
              : RemoveCategory::kCustomRemoval;
      ++diff.removes[static_cast<std::size_t>(cat)];
    }

    if (diff.added_total() + diff.removed_total() > 0) out.ever_deviates = true;
    out.points.push_back(diff);
  }
  span.set_items(out.points.size());
  rs::obs::Registry::global()
      .counter("analysis.diff_points")
      .add(out.points.size());
  return out;
}

}  // namespace rs::analysis
