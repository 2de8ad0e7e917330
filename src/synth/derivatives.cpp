#include "src/synth/derivatives.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string_view>

#include "src/crypto/prng.h"

namespace rs::synth {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Date;

int derivative_lag_days(const DerivativePolicy& policy, Date snapshot) {
  if (policy.lag_jitter_days <= 0) return policy.lag_days;
  // Deterministic per-(provider, date) jitter so histories are reproducible.
  rs::crypto::Prng rng = rs::crypto::Prng::from_label(
      0x9e1ab5, policy.name + "@" + snapshot.to_string());
  const int spread = 2 * policy.lag_jitter_days + 1;
  return policy.lag_days +
         static_cast<int>(rng.uniform(static_cast<std::uint64_t>(spread))) -
         policy.lag_jitter_days;
}

namespace {

/// Applies the copy transform to one NSS entry; nullopt = not copied.
std::optional<TrustEntry> copy_entry(const TrustEntry& src, Date snapshot_date,
                                     const DerivativePolicy& policy) {
  const bool tls = src.is_anchor_for(TrustPurpose::kServerAuth);
  const bool email = src.is_anchor_for(TrustPurpose::kEmailProtection);
  const bool conflating = policy.email_conflation_until.has_value() &&
                          snapshot_date < *policy.email_conflation_until;
  if (!tls && !(email && conflating)) return std::nullopt;

  // The single-file format grants every purpose to every bundled root and
  // cannot carry partial-distrust cutoffs: both are dropped on copy.
  TrustEntry out;
  out.certificate = src.certificate;
  for (TrustPurpose p : rs::store::kAllPurposes) {
    out.trust_for(p).level = TrustLevel::kTrustedDelegator;
  }
  return out;
}

const RootSpec* find_spec(const std::string& id, const Timeline& nss,
                          const std::map<std::string, RootSpec>& extra) {
  if (nss.has_spec(id)) return &nss.spec(id);
  const auto it = extra.find(id);
  return it == extra.end() ? nullptr : &it->second;
}

}  // namespace

rs::store::ProviderHistory generate_derivative(
    const DerivativePolicy& policy, const Timeline& nss, CertFactory& factory,
    const std::map<std::string, RootSpec>& extra_specs) {
  std::vector<Date> dates = policy.snapshot_dates;
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end()), dates.end());

  // Each snapshot copies NSS as of its effective date.  Lag jitter and the
  // freeze move those dates backwards between some snapshots, so the one
  // replay of NSS visits the snapshots in effective-date order.
  std::vector<Date> effective;
  effective.reserve(dates.size());
  for (const Date snapshot_date : dates) {
    Date e = snapshot_date - derivative_lag_days(policy, snapshot_date);
    if (policy.freeze_effective_after && e > *policy.freeze_effective_after) {
      e = *policy.freeze_effective_after;
    }
    effective.push_back(e);
  }
  std::vector<std::size_t> by_effective(dates.size());
  std::iota(by_effective.begin(), by_effective.end(), std::size_t{0});
  std::stable_sort(by_effective.begin(), by_effective.end(),
                   [&](std::size_t a, std::size_t b) {
                     return effective[a] < effective[b];
                   });

  std::vector<rs::store::Snapshot> snapshots(dates.size());
  TimelineCursor replay(nss, factory);
  for (const std::size_t i : by_effective) {
    const Date snapshot_date = dates[i];
    replay.advance_to(effective[i]);

    std::vector<TrustEntry> entries;
    std::vector<std::string_view> present_ids;  // parallel, for overrides
    replay.for_each_root([&](std::string_view id, const TrustEntry& e) {
      auto copied = copy_entry(e, snapshot_date, policy);
      if (!copied) return;
      entries.push_back(std::move(*copied));
      present_ids.push_back(id);
    });

    // Overrides: forced absences first (they win), then forced presences.
    auto remove_id = [&](const std::string& id) {
      for (std::size_t k = 0; k < present_ids.size(); ++k) {
        if (present_ids[k] == id) {
          entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(k));
          present_ids.erase(present_ids.begin() +
                            static_cast<std::ptrdiff_t>(k));
          return;
        }
      }
    };
    auto is_present = [&](const std::string& id) {
      return std::find(present_ids.begin(), present_ids.end(), id) !=
             present_ids.end();
    };

    auto absent_now = [&](const DerivativeOverride& ov) {
      return ov.always_absent ||
             (ov.absent_from.has_value() && snapshot_date >= *ov.absent_from &&
              (!ov.absent_until.has_value() ||
               snapshot_date <= *ov.absent_until));
    };
    // Pass 1: forced presences.
    for (const auto& ov : policy.overrides) {
      if (absent_now(ov)) continue;
      const bool in_window =
          (!ov.present_from || snapshot_date >= *ov.present_from) &&
          (!ov.present_until || snapshot_date <= *ov.present_until);
      if (in_window && !is_present(ov.root_id)) {
        const RootSpec* spec = find_spec(ov.root_id, nss, extra_specs);
        assert(spec != nullptr && "override references unknown root id");
        if (spec == nullptr) continue;
        TrustEntry entry;
        entry.certificate = factory.get(*spec);
        for (TrustPurpose p : rs::store::kAllPurposes) {
          entry.trust_for(p).level = TrustLevel::kTrustedDelegator;
        }
        entries.push_back(std::move(entry));
        present_ids.push_back(ov.root_id);
      }
    }
    // Pass 2: forced absences — they win over presences regardless of the
    // order the overrides were declared in.
    for (const auto& ov : policy.overrides) {
      if (absent_now(ov)) remove_id(ov.root_id);
    }

    rs::store::Snapshot& snap = snapshots[i];
    snap.provider = policy.name;
    snap.date = snapshot_date;
    snap.version = "sync-" + effective[i].to_string();
    snap.entries = std::move(entries);
  }

  rs::store::ProviderHistory history(policy.name);
  for (auto& snap : snapshots) history.add(std::move(snap));
  return history;
}

}  // namespace rs::synth
