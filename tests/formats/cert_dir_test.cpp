#include "src/formats/cert_dir.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/encoding/pem.h"
#include "src/obs/clock.h"
#include "src/obs/registry.h"
#include "src/x509/builder.h"

namespace rs::formats {
namespace {

using rs::store::TrustEntry;
using rs::util::Result;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Dir Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TEST(CertDir, WriteParseRoundTrip) {
  std::vector<TrustEntry> entries = {
      rs::store::make_tls_anchor(make_cert(1)),
      rs::store::make_tls_anchor(make_cert(2)),
  };
  const auto files = write_cert_dir(entries);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].name, files[1].name);
  EXPECT_NE(files[0].name.find(".pem"), std::string::npos);

  auto parsed = parse_cert_dir(files, BundleTrustPolicy::multi_purpose());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  EXPECT_EQ(parsed.value().entries[0].certificate->der(),
            entries[0].certificate->der());
}

TEST(CertDir, AcceptsRawDerFiles) {
  auto cert = make_cert(3);
  CertDirFile file;
  file.name = "5ed36f99.0";  // Android-style hashed name
  file.content.assign(cert->der().begin(), cert->der().end());
  auto parsed = parse_cert_dir({file}, BundleTrustPolicy::tls_only());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_EQ(parsed.value().entries[0].certificate->sha256(), cert->sha256());
}

TEST(CertDir, BadFilesWarnWithFileName) {
  CertDirFile junk{"broken.pem", "not a certificate at all"};
  auto parsed = parse_cert_dir({junk}, BundleTrustPolicy::tls_only());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("broken.pem"), std::string::npos);
}

// Parses `files` with the rs_obs registry enabled and returns the result;
// the caller reads the counters and resets the registry.
Result<ParsedStore> parse_counted(const std::vector<CertDirFile>& files) {
  auto& reg = rs::obs::Registry::global();
  rs::obs::FakeClock clock;
  reg.reset();
  reg.enable(&clock);
  auto parsed = parse_cert_dir(files, BundleTrustPolicy::tls_only());
  reg.disable();
  return parsed;
}

std::uint64_t counter(const char* name) {
  return rs::obs::Registry::global().counter(name).value();
}

TEST(CertDir, CountsEachFileOnce) {
  // Two roots plus one PEM file that holds no certificate.
  auto files = write_cert_dir({rs::store::make_tls_anchor(make_cert(1)),
                               rs::store::make_tls_anchor(make_cert(2))});
  files.push_back(
      {"key.pem", rs::encoding::pem_encode(
                      "KEY", std::vector<std::uint8_t>{1, 2, 3})});
  std::size_t bytes = 0;
  for (const auto& file : files) bytes += file.content.size();
  ASSERT_EQ(bytes, 2093u);

  const auto parsed = parse_counted(files);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().entries.size(), 2u);
  EXPECT_EQ(parsed.value().warnings.size(), 1u);
  EXPECT_EQ(counter("formats.bytes_decoded"), bytes);
  EXPECT_EQ(counter("formats.parse_warnings"), 1u);
  EXPECT_EQ(counter("formats.certs_decoded"), 2u);
  rs::obs::Registry::global().reset();
}

TEST(CertDir, RootRepeatedAcrossFilesDecodesOnce) {
  // c_rehash links a hashed name to the named file: one root, two files.
  const auto files = write_cert_dir({rs::store::make_tls_anchor(make_cert(7))});
  const auto parsed =
      parse_counted({files[0], {"5ed36f99.0", files[0].content}});
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  EXPECT_EQ(parsed.value().entries[0].certificate.get(),
            parsed.value().entries[1].certificate.get());
  EXPECT_EQ(counter("formats.certs_decoded"), 1u);
  EXPECT_EQ(counter("formats.cert_pool_hits"), 1u);
  rs::obs::Registry::global().reset();
}

TEST(CertDir, SanitizedFileNames) {
  rs::x509::Name n;
  n.add_common_name("Weird/Name: CA *2021*");
  auto cert = std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(4).build());
  const auto files = write_cert_dir({rs::store::make_tls_anchor(cert)});
  ASSERT_EQ(files.size(), 1u);
  for (char c : files[0].name) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '.')
        << files[0].name;
  }
}

TEST(CertDir, LoadFromDiskRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "rs_cert_dir_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto files = write_cert_dir({rs::store::make_tls_anchor(make_cert(5)),
                                     rs::store::make_tls_anchor(make_cert(6))});
  for (const auto& f : files) {
    std::ofstream out(dir / f.name, std::ios::binary);
    out << f.content;
  }

  auto loaded = load_cert_dir_from_disk(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().size(), 2u);
  auto parsed =
      parse_cert_dir(loaded.value(), BundleTrustPolicy::tls_only());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 2u);

  fs::remove_all(dir);
}

TEST(CertDir, LoadFromDiskRejectsNonDirectory) {
  auto loaded = load_cert_dir_from_disk("/nonexistent/path/here");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("not a directory"), std::string::npos);
}

}  // namespace
}  // namespace rs::formats
