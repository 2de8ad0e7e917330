// X.509 v3 certificate model and DER parser (RFC 5280 §4.1).
//
// This is the study's unit of identity: every root-store entry is a parsed
// Certificate, identified by its SHA-256 fingerprint.  Parsing is strict
// DER and never throws; the original bytes are retained so fingerprints and
// re-serialization are exact.  Only the SHA-256 fingerprint is stored: the
// SHA-1 and MD5 ones, which only the certdata and authroot formats name a
// certificate by, are hashed from the DER when asked for.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/asn1/oid.h"
#include "src/asn1/time.h"
#include "src/crypto/digest.h"
#include "src/util/date.h"
#include "src/util/result.h"
#include "src/x509/extensions.h"
#include "src/x509/name.h"
#include "src/x509/public_key.h"

namespace rs::x509 {

/// Certificate validity window.
struct Validity {
  rs::asn1::Asn1Time not_before;
  rs::asn1::Asn1Time not_after;

  friend auto operator<=>(const Validity&, const Validity&) = default;
};

/// A parsed X.509 certificate plus its original DER.
class Certificate {
 public:
  /// Parses strict DER.  On success the returned certificate retains a copy
  /// of `der` and its precomputed SHA-256 fingerprint.
  static rs::util::Result<Certificate> parse(std::span<const std::uint8_t> der);

  // --- identity -----------------------------------------------------------
  const std::vector<std::uint8_t>& der() const noexcept { return der_; }
  const rs::crypto::Sha256Digest& sha256() const noexcept { return sha256_; }
  /// SHA-1 and MD5 fingerprints, hashed from der() on every call: callers
  /// that need one more than once keep the value.
  rs::crypto::Sha1Digest sha1() const noexcept;
  rs::crypto::Md5Digest md5() const noexcept;

  /// First 8 hex chars of the SHA-256 fingerprint — the short id style used
  /// in the paper's Table 6 ("beb00b30...").
  std::string short_id() const;

  // --- TBS fields ----------------------------------------------------------
  int version() const noexcept { return version_; }  // 1, 2, or 3
  const std::vector<std::uint8_t>& serial() const noexcept { return serial_; }
  const rs::asn1::Oid& signature_algorithm() const noexcept {
    return sig_alg_;
  }
  const Name& issuer() const noexcept { return issuer_; }
  const Name& subject() const noexcept { return subject_; }
  const Validity& validity() const noexcept { return validity_; }
  const PublicKey& public_key() const noexcept { return public_key_; }
  const std::vector<Extension>& extensions() const noexcept {
    return extensions_;
  }
  const std::vector<std::uint8_t>& signature() const noexcept {
    return signature_;
  }

  // --- derived predicates used by the analyses ----------------------------
  /// Issuer DN equals subject DN (all roots in the study are self-issued).
  bool is_self_issued() const;

  /// BasicConstraints CA bit (absent extension => false for v3; v1 certs
  /// are treated as CAs, matching legacy root handling).
  bool is_ca() const;

  /// True if the validity window has ended at `on`.
  bool is_expired_at(rs::util::Date on) const;
  /// True if the validity window has begun at `on`.
  bool is_valid_at(rs::util::Date on) const;

  /// Signature algorithm uses MD5 (Table 3 hygiene metric).
  bool has_md5_signature() const;
  /// RSA key with modulus < 2048 bits (Table 3 hygiene metric).
  bool has_weak_rsa_key() const;

  /// Extended Key Usage, if the extension is present.
  std::optional<ExtendedKeyUsage> extended_key_usage() const;

  /// CertificatePolicies, if the extension is present (EV recognition).
  std::optional<CertificatePolicies> certificate_policies() const;

  friend bool operator==(const Certificate& a, const Certificate& b) {
    return a.der_ == b.der_;
  }

 private:
  std::vector<std::uint8_t> der_;
  rs::crypto::Sha256Digest sha256_{};

  int version_ = 1;
  std::vector<std::uint8_t> serial_;
  rs::asn1::Oid sig_alg_;
  Name issuer_;
  Name subject_;
  Validity validity_;
  PublicKey public_key_;
  std::vector<Extension> extensions_;
  std::vector<std::uint8_t> signature_;
};

}  // namespace rs::x509
