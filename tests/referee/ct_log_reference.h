// The reference CT-log generator: generate_ct_logs as the library wrote
// it before its sightings sweep moved to one accumulation per certificate
// object (src/synth/ct_log.cpp).  This one looks every entry up in a map
// keyed by digest.  tests/synth/ct_log_test.cpp requires the library to
// draw the same logs, down to which certificate object each accepted
// entry holds.  Header-only, included from the repo root.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/prng.h"
#include "src/store/database.h"
#include "src/store/trust.h"
#include "src/synth/ct_log.h"

namespace rs::referee::ct_log {

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

inline Sightings sweep_sightings(const rs::store::StoreDatabase& db) {
  Sightings sightings;
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& entry : snap.entries) {
        auto& s = sightings[entry.certificate->sha256()];
        if (!s.cert) s.cert = entry.certificate;
        if (!s.first_present || snap.date < *s.first_present) {
          s.first_present = snap.date;
        }
        if (entry.is_anchor_for(rs::store::TrustPurpose::kServerAuth)) {
          if (!s.first_tls || snap.date < *s.first_tls) s.first_tls = snap.date;
          if (!s.last_tls || *s.last_tls < snap.date) s.last_tls = snap.date;
        }
      }
    }
  }
  return sightings;
}

/// One log: its acceptance draws over the shared sightings, then one
/// accepted-roots snapshot per cadence step.
inline rs::store::ProviderHistory draw_log(
    const rs::synth::CtLogPolicy& policy, const Sightings& sightings) {
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

inline std::vector<rs::store::ProviderHistory> generate_ct_logs(
    const std::vector<rs::synth::CtLogPolicy>& policies,
    const rs::store::StoreDatabase& db) {
  std::vector<rs::store::ProviderHistory> logs;
  if (policies.empty()) return logs;
  const Sightings sightings = sweep_sightings(db);
  logs.reserve(policies.size());
  for (const auto& policy : policies) {
    logs.push_back(draw_log(policy, sightings));
  }
  return logs;
}

}  // namespace rs::referee::ct_log
