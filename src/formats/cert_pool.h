// CertPool — one decoded Certificate per distinct DER within one load.
//
// The paper's dataset repeats each root in hundreds of snapshots: the
// 670-snapshot export holds 99,087 entries for 456 distinct certificates.
// Parsing every entry would build one heap Certificate per entry; the pool
// maps DER to one shared Certificate and runs Certificate::parse only on a
// miss, so every entry of a load that carries the same bytes points to the
// same object.
//
// Identity is the exact DER: the pool is a hash map keyed on the whole
// byte string, so equal hashes are told apart by the key compare.  RSTS
// carries DER as strict, canonical base64 (one text per DER), so it may
// key a lookup on the text itself and skip decoding a certificate the pool
// already holds.
//
// A pool lives for one call: load_dataset owns one for the whole dataset,
// every other parse entry point makes one per call.  There is deliberately
// no process-wide pool; one fed by untrusted bytes would grow without
// bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/util/result.h"
#include "src/x509/certificate.h"

namespace rs::formats {

class CertPool {
 public:
  using CertPtr = std::shared_ptr<const rs::x509::Certificate>;

  /// Decode work done through this pool so far.
  struct Counts {
    std::size_t parses = 0;  // Certificate::parse calls (misses)
    std::size_t hits = 0;    // lookups served from the pool
  };

  /// The pooled certificate whose DER is exactly `der`.  Parses only when
  /// the pool holds no such certificate; a parse error is returned as-is
  /// and not remembered.
  rs::util::Result<CertPtr> decode(std::span<const std::uint8_t> der);

  /// The certificate tied to exactly this base64 text by remember_base64,
  /// or null.  A non-null answer counts as a hit.
  CertPtr find_base64(std::string_view text);

  /// Ties `text`, which find_base64 did not know, to `cert`.  `text` must
  /// be the canonical base64 of `cert->der()`, as a strict base64_decode
  /// of it proved.
  void remember_base64(std::string_view text, CertPtr cert);

  /// Distinct certificates held.
  std::size_t size() const noexcept { return by_der_.size(); }
  Counts counts() const noexcept { return counts_; }

 private:
  // Lets a std::string-keyed map be searched with a string_view.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Map =
      std::unordered_map<std::string, CertPtr, KeyHash, std::equal_to<>>;

  Map by_der_;     // DER bytes -> certificate
  Map by_base64_;  // RSTS cert text -> certificate
  Counts counts_;
};

}  // namespace rs::formats
