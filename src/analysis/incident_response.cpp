#include "src/analysis/incident_response.h"

#include <algorithm>

namespace rs::analysis {

IncidentMeasurement measure_incident(
    const rs::store::StoreDatabase& db, const rs::synth::Incident& incident,
    rs::synth::CertFactory& factory,
    const std::map<std::string, rs::store::TrustOverlay>* overlays) {
  IncidentMeasurement out;
  out.incident = incident.name;
  out.nss_removal = incident.nss_removal;

  // Resolve the incident roots to fingerprints, one per distinct root.
  std::vector<rs::crypto::Sha256Digest> prints;
  for (const auto& id : incident.root_ids) {
    if (auto cert = factory.find(id)) prints.push_back(cert->sha256());
  }
  std::sort(prints.begin(), prints.end());
  prints.erase(std::unique(prints.begin(), prints.end()), prints.end());

  for (const auto& [name, history] : db.histories()) {
    if (name == "NSS") continue;
    const rs::store::TrustOverlay* overlay = nullptr;
    if (overlays != nullptr) {
      const auto it = overlays->find(name);
      if (it != overlays->end()) overlay = &it->second;
    }

    MeasuredResponse r;
    r.provider = name;

    // carried[k]: prints[k] was a TLS anchor in some snapshot.
    std::vector<bool> carried(prints.size(), false);
    for (const auto& snap : history.snapshots()) {
      bool any_shipped = false;
      bool any_effective = false;
      for (std::size_t k = 0; k < prints.size(); ++k) {
        const auto& fp = prints[k];
        const auto* entry = snap.find(fp);
        if (entry == nullptr || !entry->is_tls_anchor()) continue;
        carried[k] = true;
        any_shipped = true;
        if (overlay == nullptr || !overlay->is_revoked(fp, snap.date)) {
          any_effective = true;
        }
      }
      if (any_shipped) r.shipped_until = snap.date;
      if (any_effective) r.trusted_until = snap.date;
    }
    r.certs_carried =
        static_cast<int>(std::count(carried.begin(), carried.end(), true));
    if (r.certs_carried == 0) continue;  // provider never included the roots

    // State at the newest snapshot.
    if (!history.empty()) {
      const auto& latest = history.back();
      for (const auto& fp : prints) {
        const auto* entry = latest.find(fp);
        if (entry == nullptr || !entry->is_tls_anchor()) continue;
        r.still_shipped = true;
        if (overlay != nullptr && overlay->is_revoked(fp, latest.date)) {
          ++r.revoked_not_removed;
        } else {
          r.still_trusted = true;
        }
      }
    }
    if (r.trusted_until && !r.still_trusted) {
      r.lag_days = static_cast<int>(*r.trusted_until - incident.nss_removal);
    }
    out.responses.push_back(std::move(r));
  }
  return out;
}

}  // namespace rs::analysis
