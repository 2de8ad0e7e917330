// Unit coverage of the RSIX persistence substrate: the hash, the
// bounds-checked primitives, the file framing, atomic writes, memory maps,
// and the store-type codecs.  The fault-injection battery over whole index
// files lives in tests/query/persist_fault_test.cpp.
#include "src/store/persist.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/store/id_set.h"
#include "src/util/hex.h"

namespace rs::store::persist {
namespace {

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Hash64, MatchesXxh64EmptyStringVector) {
  // The canonical XXH64 test vector: the empty input under seed 0.
  EXPECT_EQ(hash64(std::string_view{}), 0xEF46DB3751D8E999ULL);
}

// Pinned values of the checksum every RSIX file carries: a change to the
// hash's byte handling must not move a single one.  The inputs are
// prefixes of one pattern, at an aligned and an unaligned start, of every
// length 0..100 (the 32-byte stripe loop, then the 8-, 4- and 1-byte
// tails) under seeds 0 and 1; the 202 x 2 values, written little-endian,
// are pinned by their SHA-256.  A 1 MiB image is pinned value by value.
TEST(Hash64, KnownAnswers) {
  std::vector<std::uint8_t> pattern(std::size_t{1} << 20);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) + (i >> 16));
  }
  rs::crypto::Sha256 table;
  for (const std::size_t start : {0u, 1u}) {
    for (std::size_t n = 0; n <= 100; ++n) {
      for (const std::uint64_t seed : {0u, 1u}) {
        const std::uint64_t h =
            hash64(std::span(pattern).subspan(start, n), seed);
        std::uint8_t le[8];
        for (int i = 0; i < 8; ++i) {
          le[i] = static_cast<std::uint8_t>(h >> (8 * i));
        }
        table.update(le);
      }
    }
  }
  EXPECT_EQ(rs::util::hex_encode(table.finish()),
            "8ef093be7019fdf35675f241e4b90d0fe1609571a30b5e2ecfb8776e5c12194b");
  EXPECT_EQ(hash64(pattern, 0), 0xFC99413E425BAE3CULL);
  EXPECT_EQ(hash64(pattern, 1), 0x0BDC4C521DDCCC62ULL);
}

TEST(Hash64, DeterministicAndSensitive) {
  const std::string base(100, 'x');
  EXPECT_EQ(hash64(base), hash64(base));
  // Every prefix length hashes differently (covers the <32-byte tail path,
  // the 8/4/1-byte finishers, and the 32-byte lane loop).
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= base.size(); ++n) {
    seen.insert(hash64(std::string_view(base).substr(0, n)));
  }
  EXPECT_EQ(seen.size(), base.size() + 1);
  // Seed changes the value; single-bit input changes the value.
  EXPECT_NE(hash64(base, 1), hash64(base, 0));
  std::string flipped = base;
  flipped[57] ^= 1;
  EXPECT_NE(hash64(flipped), hash64(base));
}

TEST(ByteRoundTrip, PrimitivesAndStrings) {
  ByteWriter w;
  w.u32(0);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.str("");
  w.str("certdata");
  const std::string bytes = std::move(w).take();

  ByteReader r(as_span(bytes));
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(16, "a"), "");
  EXPECT_EQ(r.str(16, "b"), "certdata");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.finished());
}

TEST(ByteRoundTrip, LittleEndianOnTheWire) {
  ByteWriter w;
  w.u32(0x04030201u);
  const std::string bytes = std::move(w).take();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[3], 0x04);
}

TEST(ByteReader, UnderrunFailsClosedAndLatches) {
  const std::string three(3, '\0');
  ByteReader r(as_span(three));
  EXPECT_EQ(r.u32(), 0u);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().code, LoadError::kTruncated);
  // Latched: further reads are no-ops returning zero, first failure wins.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.i64(), 0);
  EXPECT_EQ(r.str(16, "s"), "");
  EXPECT_EQ(r.count(10, 1, "c"), 0u);
  EXPECT_EQ(r.failure().code, LoadError::kTruncated);
}

TEST(ByteReader, CountEnforcesCapAndRemainingBytes) {
  {
    ByteWriter w;
    w.u64(11);
    const std::string bytes = std::move(w).take();
    ByteReader r(as_span(bytes));
    EXPECT_EQ(r.count(10, 0, "thing"), 0u);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure().code, LoadError::kCountOverflow);
  }
  {
    // Count within cap but promising more elements than bytes remain.
    ByteWriter w;
    w.u64(5);
    w.u32(0);  // only 4 bytes follow, not 5 * 8
    const std::string bytes = std::move(w).take();
    ByteReader r(as_span(bytes));
    EXPECT_EQ(r.count(100, 8, "thing"), 0u);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure().code, LoadError::kCountOverflow);
  }
  {
    // A huge count must not wrap the availability arithmetic.
    ByteWriter w;
    w.u64(~0ull);
    const std::string bytes = std::move(w).take();
    ByteReader r(as_span(bytes));
    EXPECT_EQ(r.count(~0ull, 8, "thing"), 0u);
    EXPECT_FALSE(r.ok());
  }
}

TEST(ByteReader, StringOverCapFailsClosed) {
  ByteWriter w;
  w.str("sixteen-plus-bytes");
  const std::string bytes = std::move(w).take();
  ByteReader r(as_span(bytes));
  EXPECT_EQ(r.str(4, "name"), "");
  EXPECT_FALSE(r.ok());
}

TEST(FileFraming, RoundTripsSections) {
  FileBuilder b;
  b.add_section(1, "alpha");
  b.add_section(7, std::string("\x00\x01\x02", 3));
  const std::string image = b.finish();

  auto parsed = FileView::parse(as_span(image));
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const FileView& view = parsed.value();
  ASSERT_EQ(view.sections().size(), 2u);
  ASSERT_TRUE(view.section(1).has_value());
  ASSERT_TRUE(view.section(7).has_value());
  EXPECT_FALSE(view.section(2).has_value());
  const auto alpha = *view.section(1);
  EXPECT_EQ(std::string(alpha.begin(), alpha.end()), "alpha");
  EXPECT_EQ(view.section(7)->size(), 3u);
}

TEST(FileFraming, DeterministicImages) {
  const auto build = [] {
    FileBuilder b;
    b.add_section(1, "one");
    b.add_section(2, "two");
    return b.finish();
  };
  EXPECT_EQ(build(), build());
}

TEST(FileFraming, RejectsNonsense) {
  EXPECT_EQ(FileView::parse({}).code(), LoadError::kTruncated);

  const std::string text(64, 'A');
  EXPECT_EQ(FileView::parse(as_span(text)).code(), LoadError::kBadMagic);

  FileBuilder b;
  b.add_section(1, "payload");
  const std::string image = b.finish();

  {  // Version skew is detected before any checksum work.
    std::string skew = image;
    skew[8] = static_cast<char>(kFormatVersion + 1);
    EXPECT_EQ(FileView::parse(as_span(skew)).code(), LoadError::kBadVersion);
  }
  {  // Unknown feature flags.
    std::string flagged = image;
    flagged[12] = 1;
    EXPECT_EQ(FileView::parse(as_span(flagged)).code(), LoadError::kBadFlags);
  }
  {  // A flipped payload bit trips the section checksum.
    std::string corrupt = image;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x10);
    EXPECT_EQ(FileView::parse(as_span(corrupt)).code(), LoadError::kChecksum);
  }
  {  // A flipped section-table bit trips the header checksum.
    std::string corrupt = image;
    corrupt[kHeaderBytes + 8] ^= 1;
    EXPECT_EQ(FileView::parse(as_span(corrupt)).code(), LoadError::kChecksum);
  }
  {  // Trailing junk beyond the declared end.
    std::string longer = image + "x";
    EXPECT_EQ(FileView::parse(as_span(longer)).code(),
              LoadError::kTrailingBytes);
  }
  {  // Truncation anywhere must fail closed.
    for (std::size_t n = 0; n < image.size(); ++n) {
      auto result = FileView::parse(as_span(image).subspan(0, n));
      EXPECT_FALSE(result.ok()) << "prefix of " << n << " bytes parsed";
    }
  }
}

TEST(FileFraming, RejectsUnsortedSectionIds) {
  FileBuilder b;
  b.add_section(2, "second");
  b.add_section(1, "first");
  const std::string image = b.finish();
  EXPECT_EQ(FileView::parse(as_span(image)).code(),
            LoadError::kBadSectionTable);
}

TEST(AtomicWrite, RoundTripsThroughMmap) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "rs_persist_test_atomic";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "index.rsix").string();

  auto written = atomic_write_file(path, "first image");
  ASSERT_TRUE(written.ok()) << written.error();
  EXPECT_EQ(written.value(), 11u);
  // Overwrite must replace the content atomically (temp + rename).
  ASSERT_TRUE(atomic_write_file(path, "second").ok());

  auto mapped = MappedFile::open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.message();
  const auto bytes = mapped.value().bytes();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "second");

  // No temp litter left behind.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(AtomicWrite, FailsIntoMissingDirectory) {
  auto written =
      atomic_write_file("/nonexistent-dir-rs/idx.rsix", "bytes");
  EXPECT_FALSE(written.ok());
}

TEST(MappedFileTest, MissingFileIsTypedIoError) {
  auto mapped = MappedFile::open("/nonexistent-rs-persist-file");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.code(), LoadError::kIo);
}

TEST(MappedFileTest, DirectoryIsTypedIoError) {
  auto mapped = MappedFile::open("/tmp");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.code(), LoadError::kIo);
}

TEST(IdSetCodec, RoundTripsAndTrimsTrailingZeros) {
  IdSet set(300);
  set.insert(0);
  set.insert(63);
  set.insert(64);
  set.insert(191);
  ByteWriter w;
  write_id_set(w, set);
  const std::string bytes = std::move(w).take();

  // Universe is 300 IDs (5 words) but the highest bit is 191, so the
  // canonical encoding carries exactly 3 words.
  ByteReader peek(as_span(bytes));
  EXPECT_EQ(peek.u64(), 3u);

  ByteReader r(as_span(bytes));
  const IdSet loaded = read_id_set(r, 300);
  ASSERT_TRUE(r.ok()) << r.failure().message();
  EXPECT_TRUE(r.finished());
  EXPECT_EQ(loaded.ids(), set.ids());

  // An empty set is zero words.
  ByteWriter we;
  write_id_set(we, IdSet(300));
  const std::string empty_bytes = std::move(we).take();
  ByteReader re(as_span(empty_bytes));
  EXPECT_EQ(read_id_set(re, 300).size(), 0u);
  EXPECT_TRUE(re.ok());
}

TEST(IdSetCodec, RejectsNonCanonicalAndOutOfUniverse) {
  {  // Trailing zero word is a canonicality violation.
    ByteWriter w;
    w.u64(2);
    w.u64(1);
    w.u64(0);
    const std::string bytes = std::move(w).take();
    ByteReader r(as_span(bytes));
    read_id_set(r, 300);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure().code, LoadError::kBadValue);
  }
  {  // A bit at ID >= universe.
    ByteWriter w;
    w.u64(1);
    w.u64(1ull << 40);
    const std::string bytes = std::move(w).take();
    ByteReader r(as_span(bytes));
    read_id_set(r, 40);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure().code, LoadError::kBadValue);
  }
  {  // More words than the universe can need.
    ByteWriter w;
    w.u64(6);
    for (int i = 0; i < 6; ++i) w.u64(1);
    const std::string bytes = std::move(w).take();
    ByteReader r(as_span(bytes));
    read_id_set(r, 300);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failure().code, LoadError::kCountOverflow);
  }
}

TEST(DigestCodec, RoundTripsSortedUniverse) {
  std::vector<rs::crypto::Sha256Digest> digests(3);
  digests[0].fill(0x11);
  digests[1].fill(0x22);
  digests[2].fill(0x33);
  ByteWriter w;
  write_digests(w, digests);
  const std::string bytes = std::move(w).take();

  ByteReader r(as_span(bytes));
  const auto loaded = read_digests(r);
  ASSERT_TRUE(r.ok()) << r.failure().message();
  EXPECT_TRUE(r.finished());
  EXPECT_EQ(loaded, digests);
}

TEST(DigestCodec, RejectsUnsortedUniverse) {
  std::vector<rs::crypto::Sha256Digest> digests(2);
  digests[0].fill(0x22);
  digests[1].fill(0x11);
  ByteWriter w;
  write_digests(w, digests);
  const std::string bytes = std::move(w).take();

  ByteReader r(as_span(bytes));
  read_digests(r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failure().code, LoadError::kBadValue);
}

TEST(LoadFailureTest, MessageCarriesCodeAndDetail) {
  const LoadFailure f{LoadError::kChecksum, "section 3"};
  EXPECT_EQ(f.message(), "checksum_mismatch: section 3");
  EXPECT_STREQ(to_string(LoadError::kCountOverflow), "count_overflow");
}

}  // namespace
}  // namespace rs::store::persist
