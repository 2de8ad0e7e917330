#include "src/formats/cert_pool.h"

namespace rs::formats {

rs::util::Result<CertPool::CertPtr> CertPool::decode(
    std::span<const std::uint8_t> der) {
  const std::string_view key(reinterpret_cast<const char*>(der.data()),
                             der.size());
  if (const auto it = by_der_.find(key); it != by_der_.end()) {
    ++counts_.hits;
    return it->second;
  }
  ++counts_.parses;
  auto parsed = rs::x509::Certificate::parse(der);
  if (!parsed) return rs::util::Result<CertPtr>::err(parsed.error());
  auto cert =
      std::make_shared<const rs::x509::Certificate>(std::move(parsed).take());
  by_der_.emplace(key, cert);
  return cert;
}

CertPool::CertPtr CertPool::find_base64(std::string_view text) {
  const auto it = by_base64_.find(text);
  if (it == by_base64_.end()) return nullptr;
  ++counts_.hits;
  return it->second;
}

void CertPool::remember_base64(std::string_view text, CertPtr cert) {
  by_base64_.emplace(text, std::move(cert));
}

}  // namespace rs::formats
