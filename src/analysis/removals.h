// Root-removal extraction and removal-report auditing (§5.3).
//
// The paper cross-checked Mozilla's public "Removed CA Certificate Report"
// against the removals actually visible in certdata history and found 92
// removals missing from the report (mostly expirations and CA-requested
// removals).  This module reproduces that audit mechanically: extract every
// permanent disappearance of a TLS anchor from a provider history, then
// compare against a report's fingerprint list.
#pragma once

#include <vector>

#include "src/crypto/digest.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::analysis {

/// One observed removal: the root stopped being a TLS anchor at `date` and
/// never returned within the history.
struct MeasuredRemoval {
  rs::crypto::Sha256Digest root{};
  rs::util::Date date;  // first snapshot without the root
  /// The certificate had already expired when it was removed — the class
  /// of "routine" removal the paper found missing from Mozilla's report.
  bool expired_at_removal = false;
};

/// Extracts permanent TLS-anchor removals from a history.  Roots that are
/// removed and later re-added are not counted (their trust survived).
std::vector<MeasuredRemoval> measured_removals(
    const rs::store::ProviderHistory& history);

/// Result of auditing a removal report against measured removals.
struct ReportAudit {
  std::size_t measured = 0;   // removals visible in the history
  std::size_t reported = 0;   // entries in the report
  std::size_t covered = 0;    // measured removals the report contains
  std::size_t missing = 0;    // measured removals absent from the report
  std::size_t missing_expired = 0;  // ... of which expired at removal
  /// Report entries that do not correspond to any measured removal
  /// (e.g. purpose-only distrust the history cannot see).
  std::size_t unmatched_report_entries = 0;
};

/// `measured` holds one entry per root, as measured_removals returns it.
ReportAudit audit_removal_report(
    const std::vector<MeasuredRemoval>& measured,
    const std::vector<rs::crypto::Sha256Digest>& reported);

}  // namespace rs::analysis
