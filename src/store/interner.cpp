#include "src/store/interner.h"

#include <algorithm>
#include <unordered_set>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/database.h"

namespace rs::store {

CertInterner::CertInterner(std::vector<rs::crypto::Sha256Digest> digests)
    : digests_(std::move(digests)) {
  std::sort(digests_.begin(), digests_.end());
  digests_.erase(std::unique(digests_.begin(), digests_.end()),
                 digests_.end());
}

CertInterner CertInterner::from_database(const StoreDatabase& db) {
  rs::obs::Span span("store/intern_build");
  // Snapshots share their Certificate objects (a decoded dataset through
  // its CertPool, the scenario and the simulator by construction), so only
  // the first entry per object contributes a digest.  Distinct objects
  // with equal DER still collapse in the constructor's sort and unique.
  std::unordered_set<const rs::x509::Certificate*> seen;
  std::vector<rs::crypto::Sha256Digest> digests;
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& entry : snap.entries) {
        if (seen.insert(entry.certificate.get()).second) {
          digests.push_back(entry.certificate->sha256());
        }
      }
    }
  }
  auto interner = CertInterner(std::move(digests));
  span.set_items(interner.size());
  rs::obs::Registry::global()
      .counter("store.certs_interned")
      .add(interner.size());
  return interner;
}

std::optional<std::uint32_t> CertInterner::id_of(
    const rs::crypto::Sha256Digest& fp) const noexcept {
  const auto it = std::lower_bound(digests_.begin(), digests_.end(), fp);
  if (it == digests_.end() || *it != fp) return std::nullopt;
  return static_cast<std::uint32_t>(it - digests_.begin());
}

}  // namespace rs::store
