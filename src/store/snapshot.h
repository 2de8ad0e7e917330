// Root-store snapshots and per-provider histories.
//
// A Snapshot is one provider's root store at one point in time — the unit of
// the paper's 619-snapshot dataset (Table 2).  A ProviderHistory is the
// date-ordered sequence of one provider's snapshots.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/store/trust.h"
#include "src/util/date.h"

namespace rs::store {

/// One provider's root store at a point in time.
struct Snapshot {
  std::string provider;  // e.g. "NSS", "Debian"
  rs::util::Date date;   // approximate release date (§3.1 caveats)
  std::string version;   // provider-native version label, e.g. "3.53"
  std::vector<TrustEntry> entries;

  std::size_t size() const noexcept { return entries.size(); }

  /// Entry for a fingerprint, if present.
  const TrustEntry* find(const rs::crypto::Sha256Digest& fp) const;

  /// Count of entries whose certificate has expired as of the snapshot date
  /// (Table 3's "Avg. Expired" input).
  std::size_t expired_count() const;

  /// Counts of trusted-for-TLS roots with MD5 signatures / RSA < 2048.
  std::size_t md5_signed_count() const;
  std::size_t weak_rsa_count() const;
};

/// Date-ordered snapshots for one provider.
class ProviderHistory {
 public:
  ProviderHistory() = default;
  explicit ProviderHistory(std::string provider)
      : provider_(std::move(provider)) {}

  const std::string& provider() const noexcept { return provider_; }

  /// Inserts keeping date order (stable for equal dates).
  void add(Snapshot snapshot);

  const std::vector<Snapshot>& snapshots() const noexcept { return snapshots_; }
  bool empty() const noexcept { return snapshots_.empty(); }
  std::size_t size() const noexcept { return snapshots_.size(); }

  const Snapshot& front() const { return snapshots_.front(); }
  const Snapshot& back() const { return snapshots_.back(); }

  /// Latest snapshot dated on or before `when`, if any.
  const Snapshot* at(rs::util::Date when) const;

  /// Date range covered.
  rs::util::Date first_date() const { return snapshots_.front().date; }
  rs::util::Date last_date() const { return snapshots_.back().date; }

 private:
  std::string provider_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace rs::store
