#include "src/store/overlay.h"

namespace rs::store {

void TrustOverlay::add(OverlayRevocation revocation) {
  revocations_.push_back(std::move(revocation));
}

bool TrustOverlay::is_revoked(const rs::crypto::Sha256Digest& root,
                              rs::util::Date when) const {
  return find(root, when) != nullptr;
}

const OverlayRevocation* TrustOverlay::find(
    const rs::crypto::Sha256Digest& root, rs::util::Date when) const {
  for (const auto& r : revocations_) {
    if (r.root == root && r.effective <= when) return &r;
  }
  return nullptr;
}

}  // namespace rs::store
