// Derivative difference categorization (Figure 4 / §6.2).
//
// For each derivative snapshot, the roots added to and removed from its
// closest-matching NSS version are classified by *why* they differ:
// non-NSS roots, email-only roots granted TLS trust, re-added roots, and
// partial-distrust fallout.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/staleness.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::analysis {

/// Why a derivative carries a root its matched NSS version does not.
enum class AddCategory : std::size_t {
  /// Never present in any NSS snapshot (Debian-local CAs, CAcert, ...).
  kNonNssRoot = 0,
  /// Present in NSS but never TLS-trusted there (email-signing conflation).
  kEmailOnlyRoot = 1,
  /// TLS-trusted by NSS in the past but not in the matched version
  /// (re-added after an NSS removal, e.g. AmazonLinux's 1024-bit roots).
  kReAddedRoot = 2,
  /// Anything else (e.g. roots newer than the matched version).
  kOther = 3,
};
inline constexpr std::size_t kAddCategoryCount = 4;
const char* to_string(AddCategory c) noexcept;

/// Why a derivative lacks a root its matched NSS version has.
enum class RemoveCategory : std::size_t {
  /// The matched NSS entry carries a TLS distrust-after cutoff the
  /// derivative format cannot express (Symantec-distrust fallout).
  kPartialDistrustFallout = 0,
  /// Bespoke removal (proactive security edits, manual cleanups).
  kCustomRemoval = 1,
};
inline constexpr std::size_t kRemoveCategoryCount = 2;
const char* to_string(RemoveCategory c) noexcept;

/// One derivative snapshot's diff against its matched NSS version.
struct SnapshotDiff {
  rs::util::Date date;
  std::size_t matched_version = 0;
  std::array<std::size_t, kAddCategoryCount> adds{};
  std::array<std::size_t, kRemoveCategoryCount> removes{};

  std::size_t added_total() const noexcept;
  std::size_t removed_total() const noexcept;
  friend bool operator==(const SnapshotDiff&, const SnapshotDiff&) = default;
};

/// Figure 4 series for one derivative.
struct DerivativeDiffSeries {
  std::string provider;
  std::vector<SnapshotDiff> points;
  /// True if any snapshot deviates from its matched NSS version.
  bool ever_deviates = false;
  friend bool operator==(const DerivativeDiffSeries&,
                         const DerivativeDiffSeries&) = default;
};

/// Computes the series.  `nss` (the history `index` was built from)
/// supplies the ever-present / ever-TLS sets used for categorization and
/// the trust bits of each matched version's snapshot; `table` holds both
/// histories' rows.  Points come in snapshot order, one per matched
/// snapshot.
DerivativeDiffSeries derivative_diffs(const rs::store::ProviderHistory& deriv,
                                      const rs::store::ProviderHistory& nss,
                                      const rs::store::MembershipTable& table,
                                      const NssVersionIndex& index);

}  // namespace rs::analysis
