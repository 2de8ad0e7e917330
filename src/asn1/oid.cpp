#include "src/asn1/oid.h"

#include <charconv>

namespace rs::asn1 {

std::optional<Oid> Oid::from_dotted(std::string_view text) {
  std::vector<std::uint32_t> arcs;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view part =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    if (part.empty()) return std::nullopt;
    std::uint32_t arc = 0;
    const auto* first = part.data();
    const auto* last = part.data() + part.size();
    auto [ptr, ec] = std::from_chars(first, last, arc);
    if (ec != std::errc{} || ptr != last) return std::nullopt;
    arcs.push_back(arc);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (arcs.size() < 2) return std::nullopt;
  if (arcs[0] > 2) return std::nullopt;
  if (arcs[0] < 2 && arcs[1] >= 40) return std::nullopt;
  return Oid(std::move(arcs));
}

std::optional<Oid> Oid::from_der_content(std::span<const std::uint8_t> der) {
  if (der.empty()) return std::nullopt;
  std::vector<std::uint32_t> arcs;
  std::size_t i = 0;
  bool first_subid = true;
  while (i < der.size()) {
    std::uint64_t v = 0;
    if (der[i] == 0x80) return std::nullopt;  // non-minimal base-128
    bool done = false;
    while (i < der.size()) {
      const std::uint8_t b = der[i++];
      if (v > (UINT64_MAX >> 7)) return std::nullopt;  // overflow
      v = (v << 7) | (b & 0x7F);
      if ((b & 0x80) == 0) {
        done = true;
        break;
      }
    }
    if (!done) return std::nullopt;  // truncated arc
    if (v > UINT32_MAX && !(first_subid && v <= 2ull * 40 + UINT32_MAX)) {
      return std::nullopt;
    }
    if (first_subid) {
      // First subidentifier packs arcs 0 and 1: 40 * arc0 + arc1.
      const std::uint32_t arc0 = v >= 80 ? 2u : static_cast<std::uint32_t>(v / 40);
      const std::uint32_t arc1 = static_cast<std::uint32_t>(v - 40ull * arc0);
      arcs.push_back(arc0);
      arcs.push_back(arc1);
      first_subid = false;
    } else {
      arcs.push_back(static_cast<std::uint32_t>(v));
    }
  }
  return Oid(std::move(arcs));
}

std::vector<std::uint8_t> Oid::to_der_content() const {
  std::vector<std::uint8_t> out;
  if (arcs_.size() < 2) return out;
  auto emit = [&out](std::uint64_t v) {
    std::uint8_t tmp[10];
    int n = 0;
    do {
      tmp[n++] = static_cast<std::uint8_t>(v & 0x7F);
      v >>= 7;
    } while (v != 0);
    for (int i = n - 1; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(tmp[i] | (i != 0 ? 0x80 : 0x00)));
    }
  };
  emit(static_cast<std::uint64_t>(arcs_[0]) * 40 + arcs_[1]);
  for (std::size_t i = 2; i < arcs_.size(); ++i) emit(arcs_[i]);
  return out;
}

std::string Oid::to_dotted() const {
  std::string out;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(arcs_[i]);
  }
  return out;
}

namespace oids {
namespace {
Oid make(std::string_view dotted) { return *Oid::from_dotted(dotted); }
}  // namespace

#define RS_WELL_KNOWN_OID(name, dotted)   \
  const Oid& name() {                     \
    static const Oid oid = make(dotted);  \
    return oid;                           \
  }

RS_WELL_KNOWN_OID(md5_with_rsa, "1.2.840.113549.1.1.4")
RS_WELL_KNOWN_OID(sha1_with_rsa, "1.2.840.113549.1.1.5")
RS_WELL_KNOWN_OID(sha256_with_rsa, "1.2.840.113549.1.1.11")
RS_WELL_KNOWN_OID(ecdsa_with_sha256, "1.2.840.10045.4.3.2")

RS_WELL_KNOWN_OID(rsa_encryption, "1.2.840.113549.1.1.1")
RS_WELL_KNOWN_OID(ec_public_key, "1.2.840.10045.2.1")
RS_WELL_KNOWN_OID(curve_p256, "1.2.840.10045.3.1.7")
RS_WELL_KNOWN_OID(curve_p384, "1.3.132.0.34")

RS_WELL_KNOWN_OID(common_name, "2.5.4.3")
RS_WELL_KNOWN_OID(country, "2.5.4.6")
RS_WELL_KNOWN_OID(organization, "2.5.4.10")
RS_WELL_KNOWN_OID(organizational_unit, "2.5.4.11")

RS_WELL_KNOWN_OID(basic_constraints, "2.5.29.19")
RS_WELL_KNOWN_OID(key_usage, "2.5.29.15")
RS_WELL_KNOWN_OID(ext_key_usage, "2.5.29.37")
RS_WELL_KNOWN_OID(subject_key_id, "2.5.29.14")
RS_WELL_KNOWN_OID(authority_key_id, "2.5.29.35")
RS_WELL_KNOWN_OID(certificate_policies, "2.5.29.32")

RS_WELL_KNOWN_OID(eku_server_auth, "1.3.6.1.5.5.7.3.1")
RS_WELL_KNOWN_OID(eku_client_auth, "1.3.6.1.5.5.7.3.2")
RS_WELL_KNOWN_OID(eku_code_signing, "1.3.6.1.5.5.7.3.3")
RS_WELL_KNOWN_OID(eku_email_protection, "1.3.6.1.5.5.7.3.4")
RS_WELL_KNOWN_OID(eku_time_stamping, "1.3.6.1.5.5.7.3.8")
RS_WELL_KNOWN_OID(eku_any, "2.5.29.37.0")
#undef RS_WELL_KNOWN_OID
}  // namespace oids

}  // namespace rs::asn1
