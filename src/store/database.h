// The snapshot database: all providers' histories.
//
// This is the study's consolidated dataset (Table 2): every parsed snapshot
// from every provider, in provider-name order.  When a certificate entered
// and left each store is derived from the interned membership sets, not
// from here: rs::query::TrustIndex::lineage.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/store/snapshot.h"

namespace rs::store {

/// All providers' root-store histories.
class StoreDatabase {
 public:
  /// Adds a history; replaces any existing history for the same provider.
  void add(ProviderHistory history);

  const ProviderHistory* find(const std::string& provider) const;
  std::vector<std::string> providers() const;

  std::size_t provider_count() const noexcept { return histories_.size(); }
  std::size_t total_snapshots() const;

  /// All histories in provider-name order.
  const std::map<std::string, ProviderHistory>& histories() const noexcept {
    return histories_;
  }

 private:
  std::map<std::string, ProviderHistory> histories_;
};

}  // namespace rs::store
