#include "src/formats/jks.h"

#include <gtest/gtest.h>

#include "src/x509/builder.h"

namespace rs::formats {
namespace {

using rs::store::TrustEntry;
using rs::store::TrustPurpose;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("JKS Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TEST(Jks, RoundTripDefaultPassword) {
  std::vector<TrustEntry> entries = {
      rs::store::make_tls_anchor(make_cert(1)),
      rs::store::make_tls_anchor(make_cert(2)),
  };
  const auto blob = write_jks(entries, Date::ymd(2021, 2, 15));
  auto parsed = parse_jks(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  EXPECT_EQ(parsed.value().entries[0].certificate->der(),
            entries[0].certificate->der());
  // JKS carries no purpose restrictions: everything is trusted.
  for (TrustPurpose p : rs::store::kAllPurposes) {
    EXPECT_TRUE(parsed.value().entries[0].is_anchor_for(p));
  }
}

TEST(Jks, MagicBytesAndVersion) {
  const auto blob = write_jks({rs::store::make_tls_anchor(make_cert(3))},
                              Date::ymd(2020, 1, 1));
  ASSERT_GE(blob.size(), 12u);
  EXPECT_EQ(blob[0], 0xFE);
  EXPECT_EQ(blob[1], 0xED);
  EXPECT_EQ(blob[2], 0xFE);
  EXPECT_EQ(blob[3], 0xED);
  EXPECT_EQ(blob[7], 0x02);  // version 2
}

TEST(Jks, WrongPasswordFailsIntegrity) {
  const auto blob = write_jks({rs::store::make_tls_anchor(make_cert(4))},
                              Date::ymd(2020, 1, 1), "changeit");
  auto parsed = parse_jks(blob, "hunter2");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("integrity"), std::string::npos);
}

TEST(Jks, CustomPasswordRoundTrips) {
  const auto blob = write_jks({rs::store::make_tls_anchor(make_cert(5))},
                              Date::ymd(2020, 1, 1), "s3cret");
  EXPECT_TRUE(parse_jks(blob, "s3cret").ok());
  EXPECT_FALSE(parse_jks(blob, "changeit").ok());
}

TEST(Jks, CorruptionDetected) {
  auto blob = write_jks({rs::store::make_tls_anchor(make_cert(6))},
                        Date::ymd(2020, 1, 1));
  blob[blob.size() / 2] ^= 0xFF;
  EXPECT_FALSE(parse_jks(blob).ok());
}

TEST(Jks, TruncationDetected) {
  const auto blob = write_jks({rs::store::make_tls_anchor(make_cert(7))},
                              Date::ymd(2020, 1, 1));
  const std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 21);
  EXPECT_FALSE(parse_jks(truncated).ok());
  const std::vector<std::uint8_t> tiny = {0xFE, 0xED};
  auto parsed = parse_jks(tiny);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("too short"), std::string::npos);
}

TEST(Jks, EmptyStoreRoundTrips) {
  const auto blob = write_jks({}, Date::ymd(2020, 1, 1));
  auto parsed = parse_jks(blob);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
}

TEST(Jks, AliasesAreLowercasedAndUnique) {
  // Two roots with the same CN must still produce distinct aliases
  // (the short fingerprint suffix disambiguates).
  rs::x509::Name n;
  n.add_common_name("SAME NAME CA");
  auto a = std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(8).build());
  auto b = std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(9).build());
  const auto blob = write_jks({rs::store::make_tls_anchor(a),
                               rs::store::make_tls_anchor(b)},
                              Date::ymd(2020, 1, 1));
  const std::string as_text(blob.begin(), blob.end());
  EXPECT_NE(as_text.find("same name ca [" + a->short_id() + "]"),
            std::string::npos);
  EXPECT_NE(as_text.find("same name ca [" + b->short_id() + "]"),
            std::string::npos);
  auto parsed = parse_jks(blob);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 2u);
}

TEST(Jks, OverlongCommonNameRoundTrips) {
  // The alias's writeUTF length field is 16 bits; a longer CN is cut so
  // the store still parses, and the fingerprint suffix survives.
  rs::x509::Name n;
  n.add_common_name(std::string(70'000, 'a'));
  const auto cert = std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(10).build());
  const auto blob =
      write_jks({rs::store::make_tls_anchor(cert)}, Date::ymd(2020, 1, 1));
  const std::string suffix = " [" + cert->short_id() + "]";
  ASSERT_GE(blob.size(), 12u + 4u + 2u + 0xFFFFu);
  EXPECT_EQ(blob[16], 0xFF);  // alias length, big-endian
  EXPECT_EQ(blob[17], 0xFF);
  EXPECT_EQ(std::string(blob.begin() + 18 + 0xFFFF - suffix.size(),
                        blob.begin() + 18 + 0xFFFF),
            suffix);
  auto parsed = parse_jks(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.error().substr(0, 80);
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_EQ(parsed.value().entries[0].certificate->der(), cert->der());
}

}  // namespace
}  // namespace rs::formats
