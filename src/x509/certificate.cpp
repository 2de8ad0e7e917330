#include "src/x509/certificate.h"

#include "src/crypto/md5.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/util/hex.h"

namespace rs::x509 {

using rs::asn1::Reader;
using rs::util::Result;

Result<Certificate> Certificate::parse(std::span<const std::uint8_t> der) {
  Certificate cert;
  cert.der_.assign(der.begin(), der.end());
  cert.sha256_ = rs::crypto::Sha256::hash(der);

  Reader top(der);
  auto outer = top.read_sequence();
  if (!outer) return outer.propagate<Certificate>();
  if (!top.at_end()) {
    return Result<Certificate>::err("trailing data after Certificate");
  }

  auto tbs = outer.value().read_sequence();
  if (!tbs) return tbs.propagate<Certificate>();
  Reader& t = tbs.value();

  // version [0] EXPLICIT INTEGER DEFAULT v1
  if (t.next_is(rs::asn1::context(0))) {
    auto v = t.read_context(0);
    if (!v) return v.propagate<Certificate>();
    auto ver = v.value().read_small_integer();
    if (!ver) return ver.propagate<Certificate>();
    if (ver.value() < 0 || ver.value() > 2) {
      return Result<Certificate>::err("unsupported certificate version");
    }
    cert.version_ = static_cast<int>(ver.value()) + 1;
  }

  auto serial = t.read_big_integer();
  if (!serial) return serial.propagate<Certificate>();
  cert.serial_ = std::move(serial).take();

  // signature AlgorithmIdentifier
  auto sig_alg = t.read_sequence();
  if (!sig_alg) return sig_alg.propagate<Certificate>();
  auto sig_oid = sig_alg.value().read_oid();
  if (!sig_oid) return sig_oid.propagate<Certificate>();
  cert.sig_alg_ = sig_oid.value();

  auto issuer = Name::parse(t);
  if (!issuer) return issuer.propagate<Certificate>();
  cert.issuer_ = std::move(issuer).take();

  auto validity_seq = t.read_sequence();
  if (!validity_seq) return validity_seq.propagate<Certificate>();
  auto nb = rs::asn1::read_time(validity_seq.value());
  if (!nb) return nb.propagate<Certificate>();
  auto na = rs::asn1::read_time(validity_seq.value());
  if (!na) return na.propagate<Certificate>();
  cert.validity_ = Validity{nb.value(), na.value()};

  auto subject = Name::parse(t);
  if (!subject) return subject.propagate<Certificate>();
  cert.subject_ = std::move(subject).take();

  auto spki = PublicKey::parse(t);
  if (!spki) return spki.propagate<Certificate>();
  cert.public_key_ = std::move(spki).take();

  // Optional issuerUniqueID [1], subjectUniqueID [2] — skipped if present.
  for (std::uint8_t n : {std::uint8_t{1}, std::uint8_t{2}}) {
    if (t.next_is(rs::asn1::context_primitive(n))) {
      auto skip = t.read(rs::asn1::context_primitive(n));
      if (!skip) return skip.propagate<Certificate>();
    }
  }

  // extensions [3] EXPLICIT SEQUENCE OF Extension
  if (t.next_is(rs::asn1::context(3))) {
    auto ext_wrap = t.read_context(3);
    if (!ext_wrap) return ext_wrap.propagate<Certificate>();
    auto ext_seq = ext_wrap.value().read_sequence();
    if (!ext_seq) return ext_seq.propagate<Certificate>();
    while (!ext_seq.value().at_end()) {
      auto one = ext_seq.value().read_sequence();
      if (!one) return one.propagate<Certificate>();
      Extension e;
      auto oid = one.value().read_oid();
      if (!oid) return oid.propagate<Certificate>();
      e.oid = std::move(oid).take();
      if (one.value().next_is(
              rs::asn1::primitive(rs::asn1::UniversalTag::kBoolean))) {
        auto crit = one.value().read_boolean();
        if (!crit) return crit.propagate<Certificate>();
        e.critical = crit.value();
      }
      auto value = one.value().read_octet_string();
      if (!value) return value.propagate<Certificate>();
      e.value = std::move(value).take();
      if (!one.value().at_end()) {
        return Result<Certificate>::err("trailing data in Extension");
      }
      cert.extensions_.push_back(std::move(e));
    }
  }
  if (!t.at_end()) {
    return Result<Certificate>::err("trailing data in TBSCertificate");
  }

  // signatureAlgorithm (must match TBS) + signatureValue
  auto outer_alg = outer.value().read_sequence();
  if (!outer_alg) return outer_alg.propagate<Certificate>();
  auto outer_oid = outer_alg.value().read_oid();
  if (!outer_oid) return outer_oid.propagate<Certificate>();
  if (outer_oid.value() != cert.sig_alg_) {
    return Result<Certificate>::err(
        "signatureAlgorithm mismatch between TBS and outer");
  }
  auto sig = outer.value().read_bit_string();
  if (!sig) return sig.propagate<Certificate>();
  cert.signature_ = std::move(sig.value().bytes);
  if (!outer.value().at_end()) {
    return Result<Certificate>::err("trailing data after signature");
  }
  return cert;
}

rs::crypto::Sha1Digest Certificate::sha1() const noexcept {
  return rs::crypto::Sha1::hash(der_);
}

rs::crypto::Md5Digest Certificate::md5() const noexcept {
  return rs::crypto::Md5::hash(der_);
}

std::string Certificate::short_id() const {
  return rs::util::hex_encode(std::span(sha256_).first(4));
}

bool Certificate::is_self_issued() const { return issuer_ == subject_; }

bool Certificate::is_ca() const {
  const Extension* ext =
      find_extension(extensions_, rs::asn1::oids::basic_constraints());
  if (ext == nullptr) return version_ == 1;  // legacy v1 roots
  auto bc = BasicConstraints::parse(ext->value);
  return bc.ok() && bc.value().ca;
}

bool Certificate::is_expired_at(rs::util::Date on) const {
  return validity_.not_after.date < on;
}

bool Certificate::is_valid_at(rs::util::Date on) const {
  return validity_.not_before.date <= on && on <= validity_.not_after.date;
}

bool Certificate::has_md5_signature() const {
  return sig_alg_ == rs::asn1::oids::md5_with_rsa();
}

bool Certificate::has_weak_rsa_key() const {
  return public_key_.algorithm() == KeyAlgorithm::kRsa &&
         public_key_.bits() < 2048;
}

std::optional<ExtendedKeyUsage> Certificate::extended_key_usage() const {
  const Extension* ext =
      find_extension(extensions_, rs::asn1::oids::ext_key_usage());
  if (ext == nullptr) return std::nullopt;
  auto eku = ExtendedKeyUsage::parse(ext->value);
  if (!eku) return std::nullopt;
  return std::move(eku).take();
}

std::optional<CertificatePolicies> Certificate::certificate_policies() const {
  const Extension* ext =
      find_extension(extensions_, rs::asn1::oids::certificate_policies());
  if (ext == nullptr) return std::nullopt;
  auto policies = CertificatePolicies::parse(ext->value);
  if (!policies) return std::nullopt;
  return std::move(policies).take();
}

}  // namespace rs::x509
