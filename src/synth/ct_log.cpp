#include "src/synth/ct_log.h"

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/crypto/prng.h"
#include "src/obs/span.h"
#include "src/store/trust.h"

namespace rs::synth {
namespace {

using rs::util::Date;

/// Everything the acceptance draw needs about one certificate, collected
/// from a sweep over every snapshot of every store.
struct RootSighting {
  std::shared_ptr<const rs::x509::Certificate> cert;
  std::optional<Date> first_tls;    // earliest snapshot TLS-trusting it
  std::optional<Date> last_tls;     // latest snapshot TLS-trusting it
  std::optional<Date> first_present;
};

// Sorted-fingerprint map keeps the acceptance draws in a deterministic
// order regardless of database iteration order.
using Sightings = std::map<rs::crypto::Sha256Digest, RootSighting>;

void earliest(std::optional<Date>& slot, std::optional<Date> d) {
  if (d && (!slot || *d < *slot)) slot = d;
}

void latest(std::optional<Date>& slot, std::optional<Date> d) {
  if (d && (!slot || *slot < *d)) slot = d;
}

Sightings sweep_sightings(const rs::store::StoreDatabase& db) {
  // Snapshots share their Certificate objects, so the sweep accumulates
  // per object (in first-seen order) and keys by digest once per object,
  // as CertInterner::from_database does.  Distinct objects with equal DER
  // merge their dates; the first one seen stays the representative.
  std::unordered_map<const rs::x509::Certificate*, std::size_t> slot_of;
  std::vector<RootSighting> per_object;
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& entry : snap.entries) {
        const auto [it, fresh] =
            slot_of.try_emplace(entry.certificate.get(), per_object.size());
        if (fresh) per_object.push_back({entry.certificate, {}, {}, {}});
        auto& s = per_object[it->second];
        earliest(s.first_present, snap.date);
        if (entry.is_anchor_for(rs::store::TrustPurpose::kServerAuth)) {
          earliest(s.first_tls, snap.date);
          latest(s.last_tls, snap.date);
        }
      }
    }
  }
  Sightings sightings;
  for (auto& object : per_object) {
    auto [it, fresh] =
        sightings.try_emplace(object.cert->sha256(), std::move(object));
    if (fresh) continue;
    auto& s = it->second;
    earliest(s.first_present, object.first_present);
    earliest(s.first_tls, object.first_tls);
    latest(s.last_tls, object.last_tls);
  }
  return sightings;
}

/// One log: its acceptance draws over the shared sightings, then one
/// accepted-roots snapshot per cadence step.
rs::store::ProviderHistory draw_log(const CtLogPolicy& policy,
                                    const Sightings& sightings) {
  rs::crypto::Prng rng =
      rs::crypto::Prng::from_label(policy.seed, "ct-log:" + policy.name);

  struct Acceptance {
    std::shared_ptr<const rs::x509::Certificate> cert;
    Date accepted;
    std::optional<Date> retired;
  };
  std::vector<Acceptance> accepted;
  for (const auto& [fp, s] : sightings) {
    (void)fp;
    const int lag =
        policy.accept_lag_days +
        (policy.lag_jitter_days > 0
             ? static_cast<int>(rng.uniform(
                   static_cast<std::uint64_t>(policy.lag_jitter_days)))
             : 0);
    if (s.first_tls) {
      if (!rng.chance(policy.accept_prob)) continue;
      Acceptance a;
      a.cert = s.cert;
      a.accepted = *s.first_tls + lag;
      // Rare retirement, only once every store has dropped the root; most
      // accepted roots stay forever (logs append, they rarely prune).
      if (rng.chance(policy.retire_prob)) {
        a.retired = *s.last_tls + lag + 180;
      }
      accepted.push_back(std::move(a));
    } else if (s.first_present) {
      if (!rng.chance(policy.extra_accept_prob)) continue;
      Acceptance a;
      a.cert = s.cert;
      a.accepted = *s.first_present + lag;
      accepted.push_back(std::move(a));
    }
  }

  rs::store::ProviderHistory history(policy.name);
  int version = 0;
  Date d = policy.start;
  while (d <= policy.end) {
    rs::store::Snapshot snap;
    snap.provider = policy.name;
    snap.date = d;
    snap.version = "log-v" + std::to_string(++version);
    for (const auto& a : accepted) {
      if (a.accepted > d) continue;
      if (a.retired && *a.retired <= d) continue;
      snap.entries.push_back(rs::store::make_tls_anchor(a.cert));
    }
    history.add(std::move(snap));
    d = d + policy.snapshot_interval_days;
  }
  return history;
}

}  // namespace

std::vector<rs::store::ProviderHistory> generate_ct_logs(
    const std::vector<CtLogPolicy>& policies,
    const rs::store::StoreDatabase& db) {
  std::vector<rs::store::ProviderHistory> logs;
  if (policies.empty()) return logs;
  rs::obs::Span span("synth/ct_logs");
  const Sightings sightings = sweep_sightings(db);
  logs.reserve(policies.size());
  for (const auto& policy : policies) {
    logs.push_back(draw_log(policy, sightings));
    span.add_items(logs.back().size());
  }
  return logs;
}

}  // namespace rs::synth
