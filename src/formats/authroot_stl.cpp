#include "src/formats/authroot_stl.h"

#include "src/asn1/oid.h"
#include "src/asn1/reader.h"
#include "src/asn1/time.h"
#include "src/asn1/writer.h"
#include "src/formats/instrument.h"
#include "src/util/hex.h"

namespace rs::formats {

using rs::asn1::Oid;
using rs::asn1::Reader;
using rs::asn1::Writer;
using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Result;

namespace {

Oid purpose_oid(TrustPurpose p) {
  switch (p) {
    case TrustPurpose::kServerAuth:
      return rs::asn1::oids::eku_server_auth();
    case TrustPurpose::kEmailProtection:
      return rs::asn1::oids::eku_email_protection();
    case TrustPurpose::kCodeSigning:
      return rs::asn1::oids::eku_code_signing();
  }
  return rs::asn1::oids::eku_server_auth();
}

std::optional<TrustPurpose> purpose_from_oid(const Oid& oid) {
  if (oid == rs::asn1::oids::eku_server_auth()) return TrustPurpose::kServerAuth;
  if (oid == rs::asn1::oids::eku_email_protection())
    return TrustPurpose::kEmailProtection;
  if (oid == rs::asn1::oids::eku_code_signing())
    return TrustPurpose::kCodeSigning;
  return std::nullopt;
}

}  // namespace

AuthRootBlob write_authroot(const std::vector<TrustEntry>& entries) {
  AuthRootBlob blob;
  Writer entry_list;
  for (const auto& e : entries) {
    const auto& cert = *e.certificate;
    const auto sha1 = cert.sha1();
    const std::string sha1_hex = rs::util::hex_encode(sha1);
    blob.certs.emplace(sha1_hex, cert.der());

    Writer subject;
    subject.add_octet_string(sha1);

    Writer ekus;
    Writer disallowed;
    bool any_disallowed = false;
    bool all_disallowed = true;
    for (TrustPurpose p : rs::store::kAllPurposes) {
      switch (e.trust_for(p).level) {
        case TrustLevel::kTrustedDelegator:
          ekus.add_oid(purpose_oid(p));
          all_disallowed = false;
          break;
        case TrustLevel::kDistrusted:
          disallowed.add_oid(purpose_oid(p));
          any_disallowed = true;
          break;
        case TrustLevel::kMustVerify:
          all_disallowed = false;
          break;
      }
    }
    subject.add_sequence(ekus);
    if (any_disallowed) subject.add_context(0, disallowed);
    const auto& tls = e.trust_for(TrustPurpose::kServerAuth);
    if (tls.distrust_after) {
      Writer when;
      rs::asn1::write_time(when, rs::asn1::at_midnight(*tls.distrust_after));
      subject.add_context(1, when);
    }
    if (any_disallowed && all_disallowed) {
      Writer flag;
      flag.add_boolean(true);
      subject.add_context(2, flag);
    }
    entry_list.add_sequence(subject);
  }

  Writer body;
  body.add_small_integer(1);  // version
  body.add_sequence(entry_list);
  Writer top;
  top.add_sequence(body);
  blob.stl = std::move(top).take();
  return blob;
}

namespace {

Result<ParsedStore> parse_authroot_impl(std::span<const std::uint8_t> stl,
                                        const CertByHash& certs,
                                        CertPool& pool) {
  Reader top(stl);
  auto body = top.read_sequence();
  if (!body) return body.propagate<ParsedStore>();
  auto version = body.value().read_small_integer();
  if (!version) return version.propagate<ParsedStore>();
  if (version.value() != 1) {
    return Result<ParsedStore>::err("authroot: unsupported CTL version " +
                                    std::to_string(version.value()));
  }
  auto list = body.value().read_sequence();
  if (!list) return list.propagate<ParsedStore>();

  ParsedStore out;
  while (!list.value().at_end()) {
    auto subject = list.value().read_sequence();
    if (!subject) return subject.propagate<ParsedStore>();
    Reader& s = subject.value();

    auto sha1 = s.read_octet_string();
    if (!sha1) return sha1.propagate<ParsedStore>();
    if (sha1.value().size() != 20) {
      return Result<ParsedStore>::err("authroot: subject id is not SHA-1");
    }
    const std::string sha1_hex = rs::util::hex_encode(sha1.value());

    TrustEntry entry;
    auto ekus = s.read_sequence();
    if (!ekus) return ekus.propagate<ParsedStore>();
    while (!ekus.value().at_end()) {
      auto oid = ekus.value().read_oid();
      if (!oid) return oid.propagate<ParsedStore>();
      if (const auto p = purpose_from_oid(oid.value())) {
        entry.trust_for(*p).level = TrustLevel::kTrustedDelegator;
      } else {
        out.warnings.push_back("authroot: unrecognized EKU " +
                               oid.value().to_dotted() + " for " + sha1_hex);
      }
    }
    if (s.next_is(rs::asn1::context(0))) {
      auto disallowed = s.read_context(0);
      if (!disallowed) return disallowed.propagate<ParsedStore>();
      while (!disallowed.value().at_end()) {
        auto oid = disallowed.value().read_oid();
        if (!oid) return oid.propagate<ParsedStore>();
        if (const auto p = purpose_from_oid(oid.value())) {
          entry.trust_for(*p).level = TrustLevel::kDistrusted;
        }
      }
    }
    if (s.next_is(rs::asn1::context(1))) {
      auto when = s.read_context(1);
      if (!when) return when.propagate<ParsedStore>();
      auto t = rs::asn1::read_time(when.value());
      if (!t) return t.propagate<ParsedStore>();
      entry.trust_for(TrustPurpose::kServerAuth).distrust_after = t.value().date;
    }
    if (s.next_is(rs::asn1::context(2))) {
      auto flag = s.read_context(2);
      if (!flag) return flag.propagate<ParsedStore>();
      auto b = flag.value().read_boolean();
      if (!b) return b.propagate<ParsedStore>();
      if (b.value()) {
        for (TrustPurpose p : rs::store::kAllPurposes) {
          entry.trust_for(p).level = TrustLevel::kDistrusted;
        }
      }
    }

    const auto it = certs.find(sha1_hex);
    if (it == certs.end()) {
      out.warnings.push_back("authroot: no cached certificate for " + sha1_hex);
      continue;
    }
    auto cert = pool.decode(it->second);
    if (!cert) {
      out.warnings.push_back("authroot: cached certificate for " + sha1_hex +
                             " undecodable: " + cert.error());
      continue;
    }
    if (rs::util::hex_encode(cert.value()->sha1()) != sha1_hex) {
      out.warnings.push_back("authroot: cache mismatch for " + sha1_hex);
      continue;
    }
    entry.certificate = std::move(cert).take();
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

Result<ParsedStore> parse_authroot(std::span<const std::uint8_t> stl,
                                   const CertByHash& certs) {
  rs::obs::Span span("formats/authroot");
  CertPool pool;
  auto result = parse_authroot_impl(stl, certs, pool);
  detail::note_parse(span, stl.size(), result, pool);
  return result;
}

}  // namespace rs::formats
