// Baseline-Requirements-style root certificate linting.
//
// §7 of the paper calls for data-informed, objective root trust and cites
// ZLint as the direction.  This module implements the subset of checks that
// apply to *root* certificates and that the study's own hygiene analysis
// cares about: signature algorithm, key strength, validity shape, serial
// rules, CA extensions.  Each finding carries a severity so stores can be
// scored mechanically (see analysis/hygiene and `rootstore audit`).
#pragma once

#include <string>
#include <vector>

#include "src/util/date.h"
#include "src/x509/certificate.h"

namespace rs::x509 {

/// Finding severity, ZLint-flavoured.
enum class LintSeverity : std::uint8_t {
  kInfo,     // noteworthy, not wrong
  kWarning,  // legacy/deprecated practice
  kError,    // violates the BRs / RFC 5280 expectations for roots
};

const char* to_string(LintSeverity s) noexcept;

/// One lint finding.
struct LintFinding {
  /// Stable check id, e.g. "root.md5_signature".
  std::string check;
  LintSeverity severity = LintSeverity::kInfo;
  std::string message;
};

/// Lint configuration.
struct LintOptions {
  /// Reference date for expiry checks.
  rs::util::Date now = rs::util::Date::ymd(2021, 5, 1);
  /// Maximum root validity span before a warning (years).  The BRs do not
  /// cap root lifetimes, but >30y is flagged by every modern review.
  int max_validity_years = 30;
};

/// Runs all root-certificate checks; findings are ordered by severity
/// (errors first), then check id.
std::vector<LintFinding> lint_root(const Certificate& cert,
                                   const LintOptions& options = {});

/// Aggregate score used by store-level audits: errors weigh 10, warnings 3,
/// infos 1; zero is a perfectly clean root.
int lint_score(const std::vector<LintFinding>& findings) noexcept;

}  // namespace rs::x509
