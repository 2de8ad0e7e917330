#include "src/store/interner.h"

#include <algorithm>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/database.h"
#include "src/store/object_ids.h"
#include "src/util/byte_order.h"

namespace rs::store {

namespace {

// The radix index has at least two buckets per certificate, so most
// buckets hold zero or one digest, and at most 2^16 (256 KiB of starts).
constexpr unsigned kMaxPrefixBits = 16;

}  // namespace

CertInterner::CertInterner(std::vector<rs::crypto::Sha256Digest> digests)
    : digests_(std::move(digests)) {
  std::sort(digests_.begin(), digests_.end());
  digests_.erase(std::unique(digests_.begin(), digests_.end()),
                 digests_.end());
  if (digests_.empty()) return;
  prefix_bits_ = 1;
  while (prefix_bits_ < kMaxPrefixBits &&
         (std::size_t{1} << prefix_bits_) < 2 * digests_.size()) {
    ++prefix_bits_;
  }
  // Count each bucket into the slot after it, then prefix-sum into starts.
  const std::size_t buckets = std::size_t{1} << prefix_bits_;
  starts_.assign(buckets + 1, 0);
  for (const auto& d : digests_) ++starts_[bucket_of(d) + 1];
  for (std::size_t b = 0; b < buckets; ++b) starts_[b + 1] += starts_[b];
}

std::uint32_t CertInterner::bucket_of(
    const rs::crypto::Sha256Digest& fp) const noexcept {
  return rs::util::load_be32(fp.data()) >> (32 - prefix_bits_);
}

CertInterner CertInterner::from_database(const StoreDatabase& db) {
  rs::obs::Span span("store/intern_build");
  // Snapshots share their Certificate objects (a decoded dataset through
  // its CertPool, the scenario and the simulator by construction), so only
  // the first entry per object contributes a digest.  Distinct objects
  // with equal DER still collapse in the constructor's sort and unique.
  ObjectIds seen;
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
  if (digests_.empty()) return std::nullopt;
  // Digests sharing a prefix all land in one bucket, so a hostile universe
  // costs one binary search over it: never more than the whole array.
  const std::uint32_t b = bucket_of(fp);
  const auto first = digests_.begin() + starts_[b];
  const auto last = digests_.begin() + starts_[b + 1];
  const auto it = std::lower_bound(first, last, fp);
  if (it == last || *it != fp) return std::nullopt;
  return static_cast<std::uint32_t>(it - digests_.begin());
}

}  // namespace rs::store
