#include "src/formats/cert_dir.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "src/encoding/pem.h"
#include "src/formats/instrument.h"
#include "src/formats/read_all.h"
#include "src/util/hex.h"

namespace rs::formats {

using rs::store::TrustEntry;
using rs::util::Result;

namespace {

Result<ParsedStore> parse_cert_dir_impl(const std::vector<CertDirFile>& files,
                                        const BundleTrustPolicy& policy,
                                        CertPool& pool) {
  ParsedStore out;
  for (const auto& file : files) {
    // Heuristic matching real tooling: PEM if the marker appears, else DER.
    if (file.content.find("-----BEGIN") != std::string::npos) {
      auto parsed = parse_pem_bundle(file.content, policy);
      if (!parsed) {
        out.warnings.push_back(file.name + ": " + parsed.error());
        continue;
      }
      for (auto& w : parsed.value().warnings) {
        out.warnings.push_back(file.name + ": " + w);
      }
      for (auto& e : parsed.value().entries) {
        out.entries.push_back(std::move(e));
      }
    } else {
      const std::vector<std::uint8_t> der(file.content.begin(),
                                          file.content.end());
      auto cert = pool.decode(der);
      if (!cert) {
        out.warnings.push_back(file.name +
                               ": undecodable DER: " + cert.error());
        continue;
      }
      TrustEntry entry;
      entry.certificate = std::move(cert).take();
      for (auto p : policy.granted) {
        entry.trust_for(p).level = rs::store::TrustLevel::kTrustedDelegator;
      }
      out.entries.push_back(std::move(entry));
    }
  }
  return out;
}

}  // namespace

Result<ParsedStore> parse_cert_dir(const std::vector<CertDirFile>& files,
                                   const BundleTrustPolicy& policy) {
  rs::obs::Span span("formats/cert_dir");
  std::size_t bytes = 0;
  for (const auto& file : files) bytes += file.content.size();
  CertPool pool;
  auto result = parse_cert_dir_impl(files, policy, pool);
  detail::note_parse(span, bytes, result, pool);
  return result;
}

namespace {
std::string sanitize(std::string_view name) {
  std::string out;
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      out.push_back(c);
    } else if (c == ' ' || c == '-' || c == '_' || c == '.') {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "root";
  return out;
}
}  // namespace

std::vector<CertDirFile> write_cert_dir(const std::vector<TrustEntry>& entries) {
  std::vector<CertDirFile> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    const auto& cert = *e.certificate;
    const std::string cn =
        std::string(cert.subject().common_name().value_or("root"));
    CertDirFile file;
    file.name = sanitize(cn) + "_" + cert.short_id() + ".pem";
    file.content = rs::encoding::pem_encode("CERTIFICATE", cert.der());
    out.push_back(std::move(file));
  }
  return out;
}

Result<std::vector<CertDirFile>> load_cert_dir_from_disk(
    const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    return Result<std::vector<CertDirFile>>::err("not a directory: " + path);
  }
  std::vector<CertDirFile> files;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    auto content = in ? detail::read_all(in) : std::nullopt;
    if (!content) {
      return Result<std::vector<CertDirFile>>::err("unreadable file: " +
                                                   entry.path().string());
    }
    files.push_back(CertDirFile{entry.path().filename().string(),
                                std::move(*content)});
  }
  if (ec) {
    return Result<std::vector<CertDirFile>>::err("directory iteration failed: " +
                                                 ec.message());
  }
  std::sort(files.begin(), files.end(),
            [](const CertDirFile& a, const CertDirFile& b) {
              return a.name < b.name;
            });
  return files;
}

}  // namespace rs::formats
