// The canonical trust model every provider format normalizes into.
//
// NSS expresses per-purpose trust levels plus partial distrust
// (CKA_NSS_SERVER_DISTRUST_AFTER); Microsoft expresses per-purpose EKU
// properties plus disallow dates; Linux bundles express a bare on-or-off
// bit.  TrustEntry is the superset: a certificate plus per-purpose
// PurposeTrust.  §6 of the paper shows exactly what breaks when richer
// models are squeezed into the on-or-off one — this module is where that
// lossy conversion becomes visible.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/util/date.h"
#include "src/x509/certificate.h"

namespace rs::store {

/// Web-PKI trust purposes tracked by the study.
enum class TrustPurpose : std::uint8_t {
  kServerAuth = 0,
  kEmailProtection = 1,
  kCodeSigning = 2,
};

inline constexpr std::array<TrustPurpose, 3> kAllPurposes = {
    TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection,
    TrustPurpose::kCodeSigning};

const char* to_string(TrustPurpose p) noexcept;

/// Trust levels, mirroring NSS certdata semantics.
enum class TrustLevel : std::uint8_t {
  /// CKT_NSS_TRUSTED_DELEGATOR: a trust anchor for this purpose.
  kTrustedDelegator,
  /// CKT_NSS_MUST_VERIFY_TRUST: not an anchor; chains may pass through.
  kMustVerify,
  /// CKT_NSS_NOT_TRUSTED: actively distrusted.
  kDistrusted,
};

const char* to_string(TrustLevel l) noexcept;

/// Trust in one certificate for one purpose.
struct PurposeTrust {
  TrustLevel level = TrustLevel::kMustVerify;
  /// NSS partial distrust: leaf certificates issued after this date are no
  /// longer trusted (the Symantec mechanism).  Only meaningful when `level`
  /// is kTrustedDelegator.
  std::optional<rs::util::Date> distrust_after;

  bool is_anchor() const noexcept {
    return level == TrustLevel::kTrustedDelegator;
  }

  friend auto operator<=>(const PurposeTrust&, const PurposeTrust&) = default;
};

/// A root-store entry: one certificate plus its per-purpose trust bits.
struct TrustEntry {
  /// Shared because the same root appears in hundreds of snapshots.
  std::shared_ptr<const rs::x509::Certificate> certificate;
  std::array<PurposeTrust, 3> purposes;

  const PurposeTrust& trust_for(TrustPurpose p) const noexcept {
    return purposes[static_cast<std::size_t>(p)];
  }
  PurposeTrust& trust_for(TrustPurpose p) noexcept {
    return purposes[static_cast<std::size_t>(p)];
  }

  /// Anchor for the given purpose (ignoring distrust_after cutoffs).
  bool is_anchor_for(TrustPurpose p) const noexcept {
    return trust_for(p).is_anchor();
  }

  /// Anchor for TLS server authentication — the study's headline purpose.
  bool is_tls_anchor() const noexcept {
    return is_anchor_for(TrustPurpose::kServerAuth);
  }

  /// True when TLS trust carries a partial-distrust cutoff.
  bool is_partially_distrusted_tls() const noexcept {
    const auto& t = trust_for(TrustPurpose::kServerAuth);
    return t.is_anchor() && t.distrust_after.has_value();
  }
};

/// Membership scope of a certificate set: one purpose's anchors, or bare
/// presence.  The membership table and the TrustIndex keep one set per
/// scope per snapshot.
enum class Scope : std::uint8_t {
  kTls = 0,      // server-auth anchors (the paper's headline sets)
  kEmail = 1,    // email-protection anchors
  kCode = 2,     // code-signing anchors
  kPresent = 3,  // in the store at all, regardless of trust bits
};
inline constexpr std::size_t kScopeCount = 4;

/// The scope's wire name: "tls", "email", "code" or "present".
const char* to_string(Scope scope) noexcept;

/// True when `entry` belongs to the membership set of `scope`.
bool scope_matches(const TrustEntry& entry, Scope scope) noexcept;

/// Convenience constructors for the common shapes.
TrustEntry make_tls_anchor(std::shared_ptr<const rs::x509::Certificate> cert);
TrustEntry make_anchor_for(std::shared_ptr<const rs::x509::Certificate> cert,
                           std::initializer_list<TrustPurpose> purposes);

}  // namespace rs::store
