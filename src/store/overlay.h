// External trust overlays: client-side distrust applied ON TOP of a shipped
// root store.
//
// The paper repeatedly distinguishes *removing* a root from *revoking* it
// out-of-band: Apple blocked Certinomis and two StartCom roots via
// valid.apple.com while still shipping the certificates (§5.3, Table 4
// footnotes), and blocked the Government-of-Venezuela root the same way
// (§5.2).  Mozilla's OneCRL and Chrome's CRLSets are the same mechanism.
// A TrustOverlay is that out-of-band layer: dated revocations (optionally
// with a leaf whitelist, as in Apple's CNNIC response) keyed by certificate
// fingerprint.  Effective trust = shipped store minus overlay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::store {

/// One out-of-band revocation.
struct OverlayRevocation {
  rs::crypto::Sha256Digest root{};
  rs::util::Date effective;        // active from this date on
  std::string source;              // "valid.apple.com", "OneCRL", ...
  /// Leaves explicitly exempted (Apple whitelisted 1,429 CNNIC leaves);
  /// informational — leaf-level validation is out of the study's scope.
  std::size_t whitelisted_leaves = 0;
};

/// A provider's out-of-band trust layer.
class TrustOverlay {
 public:
  TrustOverlay() = default;
  explicit TrustOverlay(std::string provider)
      : provider_(std::move(provider)) {}

  const std::string& provider() const noexcept { return provider_; }

  void add(OverlayRevocation revocation);
  const std::vector<OverlayRevocation>& revocations() const noexcept {
    return revocations_;
  }
  bool empty() const noexcept { return revocations_.empty(); }

  /// True if `root` is revoked by this overlay as of `when`.
  bool is_revoked(const rs::crypto::Sha256Digest& root,
                  rs::util::Date when) const;

  /// The revocation record, if active at `when`.
  const OverlayRevocation* find(const rs::crypto::Sha256Digest& root,
                                rs::util::Date when) const;

 private:
  std::string provider_;
  std::vector<OverlayRevocation> revocations_;
};

}  // namespace rs::store
