#include "src/formats/sniff.h"

#include <fstream>

#include "src/formats/instrument.h"
#include "src/formats/jks.h"
#include "src/formats/pem_bundle.h"
#include "src/formats/portable.h"
#include "src/formats/read_all.h"

namespace rs::formats {

const char* to_string(StoreFormat f) noexcept {
  switch (f) {
    case StoreFormat::kCertdata:
      return "certdata.txt";
    case StoreFormat::kPemBundle:
      return "PEM bundle";
    case StoreFormat::kJks:
      return "JKS keystore";
    case StoreFormat::kRsts:
      return "RSTS";
    case StoreFormat::kUnknown:
      return "unknown";
  }
  return "?";
}

StoreFormat detect_store_format(std::string_view content) {
  if (content.size() >= 4 && static_cast<unsigned char>(content[0]) == 0xFE &&
      static_cast<unsigned char>(content[1]) == 0xED &&
      static_cast<unsigned char>(content[2]) == 0xFE &&
      static_cast<unsigned char>(content[3]) == 0xED) {
    return StoreFormat::kJks;
  }
  if (content.rfind("RSTS ", 0) == 0) return StoreFormat::kRsts;
  if (content.find("BEGINDATA") != std::string_view::npos ||
      content.find("CKA_CLASS") != std::string_view::npos) {
    return StoreFormat::kCertdata;
  }
  if (content.find("-----BEGIN") != std::string_view::npos) {
    return StoreFormat::kPemBundle;
  }
  return StoreFormat::kUnknown;
}

rs::util::Result<ParsedStore> parse_any_store(std::string_view content) {
  rs::obs::Span span("formats/sniff");
  switch (detect_store_format(content)) {
    case StoreFormat::kJks:
      return parse_jks(
          {reinterpret_cast<const std::uint8_t*>(content.data()),
           content.size()});
    case StoreFormat::kRsts:
      return parse_rsts(content);
    case StoreFormat::kCertdata:
      return parse_certdata(content);
    case StoreFormat::kPemBundle:
    case StoreFormat::kUnknown:
      return parse_pem_bundle(content, BundleTrustPolicy::multi_purpose());
  }
  return rs::util::Result<ParsedStore>::err("unreachable");
}

rs::util::Result<ParsedStore> load_any_store(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return rs::util::Result<ParsedStore>::err("cannot open " + path);
  }
  const auto content = detail::read_all(in);
  if (!content) {
    return rs::util::Result<ParsedStore>::err("cannot read " + path);
  }
  return parse_any_store(*content);
}

}  // namespace rs::formats
