#include "src/formats/pem_bundle.h"

#include "src/encoding/pem.h"
#include "src/formats/instrument.h"

namespace rs::formats {

using rs::store::TrustEntry;
using rs::store::TrustPurpose;
using rs::util::Result;

BundleTrustPolicy BundleTrustPolicy::multi_purpose() {
  return BundleTrustPolicy{{TrustPurpose::kServerAuth,
                            TrustPurpose::kEmailProtection,
                            TrustPurpose::kCodeSigning}};
}

BundleTrustPolicy BundleTrustPolicy::tls_only() {
  return BundleTrustPolicy{{TrustPurpose::kServerAuth}};
}

namespace {

Result<ParsedStore> parse_pem_bundle_impl(std::string_view text,
                                          const BundleTrustPolicy& policy,
                                          CertPool& pool) {
  const auto pem = rs::encoding::pem_parse_all(text);
  ParsedStore out;
  out.warnings = pem.errors;
  for (const auto& obj : pem.objects) {
    if (obj.label != "CERTIFICATE") {
      out.warnings.push_back("ignoring non-certificate PEM block '" +
                             obj.label + "'");
      continue;
    }
    auto decoded = pool.decode(obj.der);
    if (!decoded) {
      out.warnings.push_back("undecodable certificate skipped: " +
                             decoded.error());
      continue;
    }
    TrustEntry entry;
    entry.certificate = std::move(decoded).take();
    for (TrustPurpose p : policy.granted) {
      entry.trust_for(p).level = rs::store::TrustLevel::kTrustedDelegator;
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

Result<ParsedStore> parse_pem_bundle(std::string_view text,
                                     const BundleTrustPolicy& policy) {
  rs::obs::Span span("formats/pem_bundle");
  CertPool pool;
  auto result = parse_pem_bundle_impl(text, policy, pool);
  detail::note_parse(span, text.size(), result, pool);
  return result;
}

std::string write_pem_bundle(const std::vector<TrustEntry>& entries) {
  std::string out;
  for (const auto& e : entries) {
    const auto cn = e.certificate->subject().common_name();
    out += "# ";
    out += cn.value_or("(unnamed root)");
    out += '\n';
    out += rs::encoding::pem_encode("CERTIFICATE", e.certificate->der());
  }
  return out;
}

PurposeBundles write_purpose_bundles(const std::vector<TrustEntry>& entries) {
  auto filtered = [&](TrustPurpose purpose) {
    std::vector<TrustEntry> subset;
    for (const auto& e : entries) {
      if (e.is_anchor_for(purpose)) subset.push_back(e);
    }
    return write_pem_bundle(subset);
  };
  PurposeBundles out;
  out.tls = filtered(TrustPurpose::kServerAuth);
  out.email = filtered(TrustPurpose::kEmailProtection);
  out.codesign = filtered(TrustPurpose::kCodeSigning);
  return out;
}

rs::util::Result<ParsedStore> parse_purpose_bundle(std::string_view text,
                                                   TrustPurpose purpose) {
  return parse_pem_bundle(text, BundleTrustPolicy{{purpose}});
}

}  // namespace rs::formats
