#include "src/store/database.h"

#include "src/obs/registry.h"

namespace rs::store {

void StoreDatabase::add(ProviderHistory history) {
  auto& reg = rs::obs::Registry::global();
  if (reg.enabled()) {
    reg.counter("store.histories_added").increment();
    reg.counter("store.snapshots_added").add(history.size());
  }
  histories_.insert_or_assign(history.provider(), std::move(history));
}

const ProviderHistory* StoreDatabase::find(const std::string& provider) const {
  const auto it = histories_.find(provider);
  return it == histories_.end() ? nullptr : &it->second;
}

std::vector<std::string> StoreDatabase::providers() const {
  std::vector<std::string> out;
  out.reserve(histories_.size());
  for (const auto& [name, _] : histories_) out.push_back(name);
  return out;
}

std::size_t StoreDatabase::total_snapshots() const {
  std::size_t n = 0;
  for (const auto& [_, h] : histories_) n += h.size();
  return n;
}

std::shared_ptr<const rs::x509::Certificate> StoreDatabase::certificate(
    const rs::crypto::Sha256Digest& fp) const {
  for (const auto& [_, h] : histories_) {
    for (const auto& s : h.snapshots()) {
      if (const TrustEntry* e = s.find(fp)) return e->certificate;
    }
  }
  return nullptr;
}

std::vector<PresenceInterval> StoreDatabase::tls_presence(
    const rs::crypto::Sha256Digest& fp) const {
  std::vector<PresenceInterval> out;
  for (const auto& [name, h] : histories_) {
    std::optional<PresenceInterval> interval;
    for (const auto& s : h.snapshots()) {
      const TrustEntry* e = s.find(fp);
      const bool anchored = e != nullptr && e->is_tls_anchor();
      if (!anchored) continue;
      if (!interval) {
        interval = PresenceInterval{name, s.date, s.date, false};
      } else {
        interval->last_seen = s.date;
      }
    }
    if (interval) {
      if (!h.empty()) {
        const TrustEntry* latest = h.back().find(fp);
        interval->in_latest = latest != nullptr && latest->is_tls_anchor();
      }
      out.push_back(*interval);
    }
  }
  return out;
}

FingerprintSet StoreDatabase::all_tls_roots_ever() const {
  // Bulk build: collect every anchor then sort/dedupe once, instead of a
  // re-allocating merge per snapshot.
  std::vector<rs::crypto::Sha256Digest> prints;
  for (const auto& [_, h] : histories_) {
    for (const auto& s : h.snapshots()) {
      for (const auto& e : s.entries) {
        if (e.is_tls_anchor()) prints.push_back(e.certificate->sha256());
      }
    }
  }
  return FingerprintSet(std::move(prints));
}

}  // namespace rs::store
