#include "src/analysis/removals.h"

#include <map>
#include <set>

namespace rs::analysis {

std::vector<MeasuredRemoval> measured_removals(
    const rs::store::ProviderHistory& history) {
  std::vector<MeasuredRemoval> out;
  if (history.size() < 2) return out;

  // Last snapshot index in which each root is a TLS anchor, plus whether it
  // was expired then.
  struct LastSeen {
    std::size_t index = 0;
    bool expired = false;
  };
  std::map<rs::crypto::Sha256Digest, LastSeen> last_seen;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto& snap = history.snapshots()[i];
    for (const auto& e : snap.entries) {
      if (!e.is_tls_anchor()) continue;
      last_seen[e.certificate->sha256()] =
          LastSeen{i, e.certificate->is_expired_at(snap.date)};
    }
  }

  const std::size_t last_index = history.size() - 1;
  for (const auto& [fp, seen] : last_seen) {
    if (seen.index == last_index) continue;  // still trusted at the end
    MeasuredRemoval r;
    r.root = fp;
    r.date = history.snapshots()[seen.index + 1].date;
    r.expired_at_removal = seen.expired;
    out.push_back(r);
  }
  return out;
}

ReportAudit audit_removal_report(
    const std::vector<MeasuredRemoval>& measured,
    const std::vector<rs::crypto::Sha256Digest>& reported) {
  ReportAudit audit;
  audit.measured = measured.size();
  audit.reported = reported.size();

  // Each covered removal takes its digest out of the set, so what stays
  // is the report entries no measured removal matched.
  std::set<rs::crypto::Sha256Digest> unmatched(reported.begin(),
                                               reported.end());
  for (const auto& r : measured) {
    if (unmatched.erase(r.root) != 0) {
      ++audit.covered;
    } else {
      ++audit.missing;
      if (r.expired_at_removal) ++audit.missing_expired;
    }
  }
  audit.unmatched_report_entries = unmatched.size();
  return audit;
}

}  // namespace rs::analysis
