#include "src/formats/sniff.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "src/formats/jks.h"
#include "src/formats/pem_bundle.h"
#include "src/formats/portable.h"
#include "src/x509/builder.h"

namespace rs::formats {
namespace {

using rs::store::TrustEntry;

std::vector<TrustEntry> entries() {
  rs::x509::Name n;
  n.add_common_name("Sniff Root");
  return {rs::store::make_tls_anchor(
      std::make_shared<const rs::x509::Certificate>(
          rs::x509::CertificateBuilder().subject(n).key_seed(1).build()))};
}

TEST(Sniff, DetectsEveryFormat) {
  EXPECT_EQ(detect_store_format(write_certdata(entries())),
            StoreFormat::kCertdata);
  EXPECT_EQ(detect_store_format(write_pem_bundle(entries())),
            StoreFormat::kPemBundle);
  EXPECT_EQ(detect_store_format(write_rsts(entries())), StoreFormat::kRsts);
  const auto jks = write_jks(entries(), rs::util::Date::ymd(2021, 1, 1));
  EXPECT_EQ(detect_store_format(
                std::string_view(reinterpret_cast<const char*>(jks.data()),
                                 jks.size())),
            StoreFormat::kJks);
  EXPECT_EQ(detect_store_format("random bytes"), StoreFormat::kUnknown);
  EXPECT_EQ(detect_store_format(""), StoreFormat::kUnknown);
}

TEST(Sniff, ParseAnyDispatchesCorrectly) {
  const std::vector<std::string> documents = {write_certdata(entries()),
                                              write_pem_bundle(entries()),
                                              write_rsts(entries())};
  for (const std::string& content : documents) {
    auto parsed = parse_any_store(content);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed.value().entries.size(), 1u);
    EXPECT_EQ(parsed.value().entries[0].certificate->sha256(),
              entries()[0].certificate->sha256());
  }
  const auto jks = write_jks(entries(), rs::util::Date::ymd(2021, 1, 1));
  auto parsed = parse_any_store(
      std::string_view(reinterpret_cast<const char*>(jks.data()), jks.size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
}

TEST(Sniff, PemBundleIsTrustedForEveryPurpose) {
  const std::string pem = write_pem_bundle(entries());
  auto parsed = parse_any_store(pem);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries[0].is_anchor_for(
      rs::store::TrustPurpose::kCodeSigning));
}

TEST(Sniff, UnknownContentFallsBackToPem) {
  auto parsed = parse_any_store("not a store at all");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
}

TEST(Sniff, LoadAnyStoreReportsMissingFile) {
  auto loaded = load_any_store("/no/such/file");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("cannot open"), std::string::npos);
}

TEST(Sniff, LoadAnyStoreOnADirectoryIsATypedError) {
  // A directory opens as a stream, but reading it fails (EISDIR).
  const std::string dir = ::testing::TempDir();
  auto loaded = load_any_store(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error(), "cannot read " + dir);
}

TEST(Sniff, LoadAnyStoreReadsAPipeToItsEnd) {
  // A pipe has no size to take up front, so it is read to end of stream.
  const std::string pem = write_pem_bundle(entries());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], pem.data(), pem.size()),
            static_cast<ssize_t>(pem.size()));
  ::close(fds[1]);
  auto loaded = load_any_store("/proc/self/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value().entries.size(), 1u);
  EXPECT_EQ(loaded.value().entries[0].certificate->sha256(),
            entries()[0].certificate->sha256());
}

TEST(Sniff, FormatNames) {
  EXPECT_STREQ(to_string(StoreFormat::kCertdata), "certdata.txt");
  EXPECT_STREQ(to_string(StoreFormat::kJks), "JKS keystore");
  EXPECT_STREQ(to_string(StoreFormat::kRsts), "RSTS");
  EXPECT_STREQ(to_string(StoreFormat::kUnknown), "unknown");
}

}  // namespace
}  // namespace rs::formats
