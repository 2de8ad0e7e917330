// ASN.1 OBJECT IDENTIFIER value type.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rs::asn1 {

/// An OBJECT IDENTIFIER as a sequence of arcs.
///
/// Construct from dotted text ("1.2.840.113549.1.1.11") or from DER content
/// octets; encodes back to either form.  Comparable/hashable so OIDs can key
/// maps of signature algorithms and EKU purposes.
class Oid {
 public:
  Oid() = default;
  explicit Oid(std::vector<std::uint32_t> arcs) : arcs_(std::move(arcs)) {}

  /// Parses dotted-decimal text; nullopt unless >= 2 arcs, first arc 0..2,
  /// second arc < 40 when first < 2 (X.660 constraints).
  static std::optional<Oid> from_dotted(std::string_view text);

  /// Decodes DER content octets (base-128 arcs); nullopt on truncation,
  /// empty input, or non-minimal leading 0x80 octets.
  static std::optional<Oid> from_der_content(std::span<const std::uint8_t> der);

  /// DER content octets (no tag/length).
  std::vector<std::uint8_t> to_der_content() const;

  /// Dotted-decimal text.
  std::string to_dotted() const;

  const std::vector<std::uint32_t>& arcs() const noexcept { return arcs_; }
  bool empty() const noexcept { return arcs_.empty(); }

  friend auto operator<=>(const Oid&, const Oid&) = default;

 private:
  std::vector<std::uint32_t> arcs_;
};

/// Well-known OIDs used across x509/formats.  Functions (not globals) to
/// avoid static-initialization-order concerns (Core Guidelines I.22); each
/// parses its dotted text once, into a function-local static (initialized
/// thread-safely on first call), and returns a reference to it.
namespace oids {
// Signature algorithms.
const Oid& md5_with_rsa();        // 1.2.840.113549.1.1.4
const Oid& sha1_with_rsa();       // 1.2.840.113549.1.1.5
const Oid& sha256_with_rsa();     // 1.2.840.113549.1.1.11
const Oid& ecdsa_with_sha256();   // 1.2.840.10045.4.3.2

// Public key algorithms.
const Oid& rsa_encryption();      // 1.2.840.113549.1.1.1
const Oid& ec_public_key();       // 1.2.840.10045.2.1
const Oid& curve_p256();          // 1.2.840.10045.3.1.7
const Oid& curve_p384();          // 1.3.132.0.34

// Name attribute types.
const Oid& common_name();         // 2.5.4.3
const Oid& country();             // 2.5.4.6
const Oid& organization();        // 2.5.4.10
const Oid& organizational_unit(); // 2.5.4.11

// Extensions.
const Oid& basic_constraints();   // 2.5.29.19
const Oid& key_usage();           // 2.5.29.15
const Oid& ext_key_usage();       // 2.5.29.37
const Oid& subject_key_id();      // 2.5.29.14
const Oid& authority_key_id();    // 2.5.29.35
const Oid& certificate_policies();// 2.5.29.32

// Extended key usage purposes.
const Oid& eku_server_auth();     // 1.3.6.1.5.5.7.3.1
const Oid& eku_client_auth();     // 1.3.6.1.5.5.7.3.2
const Oid& eku_code_signing();    // 1.3.6.1.5.5.7.3.3
const Oid& eku_email_protection();// 1.3.6.1.5.5.7.3.4
const Oid& eku_time_stamping();   // 1.3.6.1.5.5.7.3.8
const Oid& eku_any();             // 2.5.29.37.0
}  // namespace oids

}  // namespace rs::asn1
