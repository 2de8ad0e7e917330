// CertPool: one shared Certificate per distinct DER, parsed only on a miss;
// each DER and each base64 text maps to its own certificate; parse errors
// are returned, not remembered.  The pooled RSTS and dataset paths are
// checked in portable_test.cpp and dataset_io_test.cpp.
#include "src/formats/cert_pool.h"

#include <gtest/gtest.h>

#include "src/encoding/base64.h"
#include "src/x509/builder.h"

namespace rs::formats {
namespace {

std::vector<std::uint8_t> der_of(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Pool Root " + std::to_string(seed));
  return rs::x509::CertificateBuilder().subject(n).key_seed(seed).build().der();
}

TEST(CertPool, ParsesOncePerDistinctDer) {
  CertPool pool;
  const auto a = der_of(1);
  const auto b = der_of(2);
  const auto first = pool.decode(a);
  ASSERT_TRUE(first.ok()) << first.error();
  const auto again = pool.decode(std::vector<std::uint8_t>(a));  // a copy
  const auto other = pool.decode(b);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(again.value(), first.value());
  EXPECT_NE(other.value(), first.value());
  EXPECT_EQ(first.value()->der(), a);
  EXPECT_EQ(other.value()->der(), b);
  EXPECT_EQ(pool.decode(b).value(), other.value());
  EXPECT_EQ(pool.decode(a).value(), first.value());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.counts().parses, 2u);
  EXPECT_EQ(pool.counts().hits, 3u);
}

TEST(CertPool, ParseErrorsAreReturnedAndNotRemembered) {
  CertPool pool;
  auto bad = der_of(6);
  bad.resize(bad.size() / 2);
  const auto first = pool.decode(bad);
  ASSERT_FALSE(first.ok());
  const auto second = pool.decode(bad);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error(), first.error());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.counts().parses, 2u);
  EXPECT_EQ(pool.counts().hits, 0u);
}

TEST(CertPool, Base64LookupHitsOnlyRememberedText) {
  CertPool pool;
  const auto a = der_of(7);
  const std::string text = rs::encoding::base64_encode(a);
  EXPECT_EQ(pool.find_base64(text), nullptr);
  const auto cert = pool.decode(a).value();
  EXPECT_EQ(pool.find_base64(text), nullptr);  // DER alone keys no text
  pool.remember_base64(text, cert);
  EXPECT_EQ(pool.find_base64(text), cert);
  EXPECT_EQ(pool.find_base64(text.substr(0, text.size() - 4)), nullptr);
  const auto b = der_of(8);
  const std::string other = rs::encoding::base64_encode(b);
  const auto other_cert = pool.decode(b).value();
  pool.remember_base64(other, other_cert);
  EXPECT_EQ(pool.find_base64(other), other_cert);
  EXPECT_EQ(pool.find_base64(text), cert);
  EXPECT_EQ(pool.counts().hits, 3u);
}

}  // namespace
}  // namespace rs::formats
