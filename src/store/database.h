// The snapshot database: all providers' histories plus a certificate index.
//
// This is the study's consolidated dataset (Table 2): every parsed snapshot
// from every provider, with a cross-provider index from fingerprint to the
// certificate and the (provider, date) intervals in which it appears.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/store/snapshot.h"

namespace rs::store {

/// Presence of one certificate in one provider's history.
struct PresenceInterval {
  std::string provider;
  rs::util::Date first_seen;
  rs::util::Date last_seen;   // date of last snapshot containing it
  bool in_latest = false;     // still present in the provider's newest snapshot
};

/// All providers' root-store histories with cross-provider indexing.
class StoreDatabase {
 public:
  /// Adds a history; replaces any existing history for the same provider.
  void add(ProviderHistory history);

  const ProviderHistory* find(const std::string& provider) const;
  std::vector<std::string> providers() const;

  std::size_t provider_count() const noexcept { return histories_.size(); }
  std::size_t total_snapshots() const;

  /// The certificate object for a fingerprint, if any provider carries it.
  std::shared_ptr<const rs::x509::Certificate> certificate(
      const rs::crypto::Sha256Digest& fp) const;

  /// Providers/intervals where the certificate appears as a *TLS anchor*.
  std::vector<PresenceInterval> tls_presence(
      const rs::crypto::Sha256Digest& fp) const;

  /// Distinct certificates that were ever TLS anchors in any history.
  FingerprintSet all_tls_roots_ever() const;

  /// All histories in provider-name order.
  const std::map<std::string, ProviderHistory>& histories() const noexcept {
    return histories_;
  }

 private:
  std::map<std::string, ProviderHistory> histories_;
};

}  // namespace rs::store
