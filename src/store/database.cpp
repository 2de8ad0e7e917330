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

}  // namespace rs::store
