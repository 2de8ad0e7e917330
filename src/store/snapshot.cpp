#include "src/store/snapshot.h"

#include <algorithm>

namespace rs::store {

const TrustEntry* Snapshot::find(const rs::crypto::Sha256Digest& fp) const {
  for (const auto& e : entries) {
    if (e.certificate->sha256() == fp) return &e;
  }
  return nullptr;
}

std::size_t Snapshot::expired_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(), [this](const TrustEntry& e) {
        return e.certificate->is_expired_at(date);
      }));
}

std::size_t Snapshot::md5_signed_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(), [](const TrustEntry& e) {
        return e.is_tls_anchor() && e.certificate->has_md5_signature();
      }));
}

std::size_t Snapshot::weak_rsa_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(), [](const TrustEntry& e) {
        return e.is_tls_anchor() && e.certificate->has_weak_rsa_key();
      }));
}

void ProviderHistory::add(Snapshot snapshot) {
  const auto pos = std::upper_bound(
      snapshots_.begin(), snapshots_.end(), snapshot.date,
      [](rs::util::Date d, const Snapshot& s) { return d < s.date; });
  snapshots_.insert(pos, std::move(snapshot));
}

const Snapshot* ProviderHistory::at(rs::util::Date when) const {
  const Snapshot* best = nullptr;
  for (const auto& s : snapshots_) {
    if (s.date <= when) best = &s;
    else break;
  }
  return best;
}

}  // namespace rs::store
