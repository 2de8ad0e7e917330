// Parameterized digest sweeps: for every input length around the 64-byte
// block boundary and beyond, incremental hashing in every chunking must
// equal the one-shot result, for all three digests.
#include <gtest/gtest.h>

#include <string>

#include "src/crypto/hmac.h"
#include "src/crypto/md5.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/util/hex.h"

namespace rs::crypto {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  return out;
}

class DigestSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DigestSweepTest, Md5IncrementalEqualsOneShot) {
  const auto data = pattern_bytes(GetParam());
  const auto oneshot = Md5::hash(data);
  for (std::size_t chunk : {1u, 7u, 64u}) {
    Md5 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(std::span(data).subspan(off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(h.finish(), oneshot) << "len=" << GetParam() << " chunk=" << chunk;
  }
}

TEST_P(DigestSweepTest, Sha1IncrementalEqualsOneShot) {
  const auto data = pattern_bytes(GetParam());
  const auto oneshot = Sha1::hash(data);
  for (std::size_t chunk : {1u, 13u, 63u}) {
    Sha1 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(std::span(data).subspan(off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(h.finish(), oneshot) << "len=" << GetParam() << " chunk=" << chunk;
  }
}

TEST_P(DigestSweepTest, Sha256IncrementalEqualsOneShot) {
  const auto data = pattern_bytes(GetParam());
  const auto oneshot = Sha256::hash(data);
  for (std::size_t chunk : {1u, 31u, 65u}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(std::span(data).subspan(off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(h.finish(), oneshot) << "len=" << GetParam() << " chunk=" << chunk;
  }
}

TEST_P(DigestSweepTest, LengthExtensionChangesDigest) {
  // Appending one byte must change all three digests (padding encodes
  // length; catches broken finalization).
  const auto data = pattern_bytes(GetParam());
  auto longer = data;
  longer.push_back(0x00);
  EXPECT_NE(Md5::hash(data), Md5::hash(longer));
  EXPECT_NE(Sha1::hash(data), Sha1::hash(longer));
  EXPECT_NE(Sha256::hash(data), Sha256::hash(longer));
}

// Empty update() calls must be no-ops (an empty span can carry a null
// data() pointer, which once reached memcpy — UB caught by UBSan through
// the JKS fuzz harness).
TEST(DigestEmptyUpdate, InterleavedEmptyUpdatesAreNoOps) {
  const auto data = pattern_bytes(100);
  Md5 md5;
  Sha1 sha1;
  Sha256 sha256;
  md5.update({});
  sha1.update({});
  sha256.update({});
  md5.update(data);
  sha1.update(data);
  sha256.update(data);
  md5.update({});
  sha1.update({});
  sha256.update({});
  EXPECT_EQ(md5.finish(), Md5::hash(data));
  EXPECT_EQ(sha1.finish(), Sha1::hash(data));
  EXPECT_EQ(sha256.finish(), Sha256::hash(data));
}

TEST(DigestEmptyUpdate, EmptyInputHashesMatchKnownVectors) {
  // RFC 1321 / FIPS 180 test vectors for the empty message.
  EXPECT_EQ(Md5::hash({}), Md5::hash(pattern_bytes(0)));
  Sha1 h;
  h.update({});
  EXPECT_EQ(h.finish(), Sha1::hash({}));
}

// Pins absolute digest values at every length 0..300, so every padding
// boundary (55, 56, 63, 64, 119, 120 bytes) is covered, not only the few
// lengths the RFC/FIPS vectors check.  Each length is hashed by all three
// digests one-shot and in 7-byte chunks, and HMAC-SHA256 runs with keys of
// 0..99 bytes (keys past the 64-byte block are hashed first).  One SHA-256
// over every output, in that order, is compared with a recorded value;
// Python's hashlib and hmac modules give the same value for the same sweep.
TEST(DigestPin, SweepOutputsMatchRecordedDigest) {
  Sha256 all;
  auto absorb = [&all](std::span<const std::uint8_t> digest) {
    all.update(digest);
  };
  auto chunked = [](auto hasher, std::span<const std::uint8_t> data) {
    for (std::size_t off = 0; off < data.size(); off += 7) {
      hasher.update(
          data.subspan(off, std::min<std::size_t>(7, data.size() - off)));
    }
    return hasher.finish();
  };
  for (std::size_t n = 0; n <= 300; ++n) {
    const auto data = pattern_bytes(n);
    absorb(Md5::hash(data));
    absorb(chunked(Md5(), data));
    absorb(Sha1::hash(data));
    absorb(chunked(Sha1(), data));
    absorb(Sha256::hash(data));
    absorb(chunked(Sha256(), data));
  }
  for (std::size_t k = 0; k < 100; ++k) {
    absorb(hmac_sha256(pattern_bytes(k), pattern_bytes(3 * k)));
  }
  EXPECT_EQ(rs::util::hex_encode(all.finish()),
            "d8767062f48bb13f59b4abed72e4d04d39f05350fb893a894a1124d02ecb6852");
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, DigestSweepTest,
                         ::testing::Values(0u, 1u, 54u, 55u, 56u, 57u, 63u,
                                           64u, 65u, 118u, 119u, 120u, 127u,
                                           128u, 129u, 1000u));

}  // namespace
}  // namespace rs::crypto
