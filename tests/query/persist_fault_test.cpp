// Fault-injection battery for the persisted index loader (ctest label
// `persist_fault`): every way an RSIX file can lie must produce a typed
// LoadError — never a crash, never a silently wrong index.  The corpus is
// a real serialized index; corruptions are injected byte-surgically:
//   * truncation at every section boundary, and one byte either side,
//   * single-bit flips across the header, section table, and payloads,
//   * version and flag skew,
//   * count fields rewritten to hostile values (via re-framed sections,
//     so checksums are valid and the *semantic* caps must catch them).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/query/index_io.h"
#include "src/query/trust_index.h"
#include "src/store/id_set.h"
#include "src/store/interner.h"
#include "src/store/persist.h"
#include "src/synth/simulator.h"

namespace rs::query {
namespace {

namespace persist = rs::store::persist;
using persist::LoadError;

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// One compact but fully featured index image: multiple providers (with
/// derivatives), multi-year histories, all three sections populated.
const std::string& corpus_image() {
  static const std::string image = [] {
    rs::synth::SimulatorConfig cfg;
    cfg.seed = 11;
    cfg.ca_count = 40;
    cfg.program_count = 2;
    cfg.derivative_count = 1;
    cfg.snapshot_interval_days = 180;
    const auto eco = rs::synth::simulate_ecosystem(cfg);
    const TrustIndex index = TrustIndex::build(
        eco.database, rs::store::CertInterner::from_database(eco.database));
    return TrustIndexIO::serialize(index);
  }();
  return image;
}

/// Byte offsets of every structural boundary in the image: header end,
/// section-table end, and each section's payload end.
std::vector<std::size_t> section_boundaries(const std::string& image) {
  auto parsed = persist::FileView::parse(as_span(image));
  EXPECT_TRUE(parsed.ok());
  std::vector<std::size_t> cuts;
  cuts.push_back(persist::kHeaderBytes);
  std::size_t offset = persist::kHeaderBytes +
                       parsed.value().sections().size() *
                           persist::kSectionEntryBytes;
  cuts.push_back(offset);  // end of the section table
  for (const auto& s : parsed.value().sections()) {
    offset += s.payload.size();
    cuts.push_back(offset);  // end of this section's payload
  }
  return cuts;
}

/// Reframes the corpus with section `id`'s payload replaced, so all
/// checksums are freshly valid and only semantic validation can object.
std::string with_section_payload(std::uint32_t id, std::string payload) {
  auto parsed = persist::FileView::parse(as_span(corpus_image()));
  EXPECT_TRUE(parsed.ok());
  persist::FileBuilder b;
  for (const auto& s : parsed.value().sections()) {
    if (s.id == id) {
      b.add_section(s.id, payload);
    } else {
      b.add_section(s.id,
                    std::string(s.payload.begin(), s.payload.end()));
    }
  }
  return b.finish();
}

/// Every corruption must fail closed: typed error, no value, no crash.
void expect_rejected(const std::string& image, const char* what) {
  auto loaded = TrustIndexIO::deserialize(as_span(image));
  EXPECT_FALSE(loaded.ok()) << what << ": corrupt image loaded";
  if (!loaded.ok()) {
    // The failure is typed and renders a non-empty diagnostic.
    EXPECT_FALSE(loaded.message().empty()) << what;
  }
}

TEST(PersistFault, CorpusIsValid) {
  auto loaded = TrustIndexIO::deserialize(as_span(corpus_image()));
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_GT(loaded.value().provider_count(), 2u);
  auto verified = TrustIndexIO::verify(as_span(corpus_image()));
  ASSERT_TRUE(verified.ok()) << verified.message();
}

TEST(PersistFault, TruncationSweepAtEverySectionBoundary) {
  const std::string& image = corpus_image();
  for (const std::size_t cut : section_boundaries(image)) {
    for (const std::size_t n :
         {cut - 1, cut, cut == image.size() ? cut : cut + 1}) {
      if (n >= image.size()) continue;
      expect_rejected(image.substr(0, n),
                      ("truncated to " + std::to_string(n)).c_str());
    }
  }
  // And a coarse sweep across the whole image.
  for (std::size_t n = 0; n < image.size(); n += 97) {
    expect_rejected(image.substr(0, n),
                    ("truncated to " + std::to_string(n)).c_str());
  }
}

TEST(PersistFault, SingleBitFlipsInHeaderAndSectionTable) {
  const std::string& image = corpus_image();
  const std::size_t protected_bytes =
      persist::kHeaderBytes + 3 * persist::kSectionEntryBytes;
  ASSERT_LE(protected_bytes, image.size());
  for (std::size_t byte = 0; byte < protected_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      // The magic, version, flags, counts, offsets, and both checksum
      // layers each cover part of this range; every flip must land in
      // one of those nets.
      expect_rejected(flipped, ("bit " + std::to_string(bit) + " of byte " +
                                std::to_string(byte))
                                   .c_str());
    }
  }
}

TEST(PersistFault, SingleBitFlipsInPayloadsTripSectionChecksums) {
  const std::string& image = corpus_image();
  const std::size_t payload_start =
      persist::kHeaderBytes + 3 * persist::kSectionEntryBytes;
  // Stride across the payload region; every flip must be caught by the
  // section checksum before any payload byte is interpreted.
  for (std::size_t byte = payload_start; byte < image.size(); byte += 211) {
    std::string flipped = image;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x40);
    auto loaded = TrustIndexIO::deserialize(as_span(flipped));
    ASSERT_FALSE(loaded.ok()) << "payload flip at byte " << byte;
    EXPECT_EQ(loaded.code(), LoadError::kChecksum)
        << "payload flip at byte " << byte;
  }
}

TEST(PersistFault, VersionAndFlagSkew) {
  {
    std::string skew = corpus_image();
    skew[8] = 3;  // future format version
    auto loaded = TrustIndexIO::deserialize(as_span(skew));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadVersion);
  }
  {
    std::string skew = corpus_image();
    skew[8] = 0;  // pre-release version
    auto loaded = TrustIndexIO::deserialize(as_span(skew));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadVersion);
  }
  {
    std::string skew = corpus_image();
    skew[12] = 0x04;  // unknown feature flag
    auto loaded = TrustIndexIO::deserialize(as_span(skew));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadFlags);
  }
}

// Format version 1 stored presence intervals as a fourth section.  Such a
// file fails on its version field, before any checksum is read; rebuilding
// it with `rootstore index build` is the migration.
TEST(PersistFault, VersionOneIsRejected) {
  std::string v1 = corpus_image();
  v1[8] = 1;
  auto loaded = TrustIndexIO::deserialize(as_span(v1));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), LoadError::kBadVersion);
}

TEST(PersistFault, NotAnIndexAtAll) {
  expect_rejected("", "empty file");
  expect_rejected(std::string(3, '\0'), "three zero bytes");
  expect_rejected(std::string(4096, 'A'), "text file");
  // Text-mode mangling: the \r\n sentinel in the magic catches a file
  // that went through newline translation.
  std::string mangled = corpus_image();
  mangled.erase(6, 1);  // strip the \r
  expect_rejected(mangled, "CRLF-stripped image");
}

// A version-2 file carries exactly sections 1..3: a fourth one, framed
// with fresh checksums, is refused rather than ignored.
TEST(PersistFault, FourthSectionIsRejected) {
  auto parsed = persist::FileView::parse(as_span(corpus_image()));
  ASSERT_TRUE(parsed.ok());
  persist::FileBuilder b;
  for (const auto& s : parsed.value().sections()) {
    b.add_section(s.id, std::string(s.payload.begin(), s.payload.end()));
  }
  persist::ByteWriter extra;
  extra.u64(0);
  b.add_section(kSectionSets + 1, std::move(extra).take());
  auto loaded = TrustIndexIO::deserialize(as_span(b.finish()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), LoadError::kBadSectionTable);
}

TEST(PersistFault, OversizedCountsFailTheCapsNotTheAllocator) {
  {  // Interner digest count beyond kMaxCerts.
    persist::ByteWriter w;
    w.u64(persist::kMaxCerts + 1);
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionInterner, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kCountOverflow);
  }
  {  // Digest count promising more bytes than the section holds.
    persist::ByteWriter w;
    w.u64(1000);
    w.u64(0);
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionInterner, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kCountOverflow);
  }
  {  // Provider count beyond kMaxProviders.
    persist::ByteWriter w;
    w.u64(persist::kMaxProviders + 1);
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionProviders, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kCountOverflow);
  }
  {  // A provider name longer than kMaxNameBytes.
    persist::ByteWriter w;
    w.u64(1);
    w.str(std::string(persist::kMaxNameBytes + 1, 'p'));
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionProviders, std::move(w).take())));
    EXPECT_FALSE(loaded.ok());
  }
}

TEST(PersistFault, SemanticInvariantViolations) {
  {  // Provider with zero snapshots.  (The name is long enough that the
     // per-provider byte floor passes and the semantic check is what fires.)
    persist::ByteWriter w;
    w.u64(1);
    w.str("SnapshotlessProvider");
    w.u64(0);
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionProviders, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadValue);
  }
  {  // Empty provider name.
    persist::ByteWriter w;
    w.u64(1);
    w.str("");
    w.u64(1);
    w.i64(0);
    w.str("v1");
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionProviders, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadValue);
  }
  {  // Provider names out of order.
    persist::ByteWriter w;
    w.u64(2);
    w.str("Zeta");
    w.u64(1);
    w.i64(0);
    w.str("v");
    w.str("Alpha");
    w.u64(1);
    w.i64(0);
    w.str("v");
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionProviders, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadValue);
  }
  {  // Snapshot dates not strictly ascending.
    persist::ByteWriter w;
    w.u64(1);
    w.str("P");
    w.u64(2);
    w.i64(100);
    w.i64(100);
    w.str("a");
    w.str("b");
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionProviders, std::move(w).take())));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadValue);
  }
}

TEST(PersistFault, TrailingAndMissingBytes) {
  {  // Junk appended to a section payload (reframed, checksums valid).
    auto parsed = persist::FileView::parse(as_span(corpus_image()));
    ASSERT_TRUE(parsed.ok());
    const auto s1 = *parsed.value().section(kSectionInterner);
    std::string padded(s1.begin(), s1.end());
    padded += '\0';
    auto loaded = TrustIndexIO::deserialize(
        as_span(with_section_payload(kSectionInterner, padded)));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kTrailingBytes);
  }
  {  // Junk appended to the file itself.
    expect_rejected(corpus_image() + "tail", "appended bytes");
  }
  {  // A section missing entirely.
    auto parsed = persist::FileView::parse(as_span(corpus_image()));
    ASSERT_TRUE(parsed.ok());
    persist::FileBuilder b;
    for (const auto& s : parsed.value().sections()) {
      if (s.id == kSectionSets) continue;
      b.add_section(s.id, std::string(s.payload.begin(), s.payload.end()));
    }
    auto loaded = TrustIndexIO::deserialize(as_span(b.finish()));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), LoadError::kBadSectionTable);
  }
}

// verify() counts presence runs from the sets: |S_k \ S_{k-1}| summed over
// every (provider, scope) and date.  Four providers over a 1,024-digest
// universe, one snapshot each: when every set holds the universe's last id
// that is one run per set, 16 in all; with empty sets it is none.
TEST(PersistFault, VerifyCountsRunsFromTheSets) {
  constexpr std::uint32_t kDigests = 1024;
  constexpr std::uint32_t kLast = kDigests - 1;
  constexpr std::int64_t kDay = 18262;  // 2020-01-01
  const auto image = [&](bool last_is_member) {
    std::vector<rs::crypto::Sha256Digest> digests(kDigests);
    for (std::uint32_t i = 0; i < kDigests; ++i) {
      digests[i][0] = static_cast<std::uint8_t>(i >> 8);
      digests[i][1] = static_cast<std::uint8_t>(i);
    }
    persist::ByteWriter interner;
    persist::write_digests(interner, digests);
    persist::ByteWriter providers;
    persist::ByteWriter sets;
    providers.u64(4);
    for (int p = 0; p < 4; ++p) {
      providers.str("P" + std::to_string(p));
      providers.u64(1);
      providers.i64(kDay);
      providers.str("v1");
      for (std::size_t s = 0; s < kScopeCount; ++s) {
        rs::store::IdSet members(kDigests);
        if (last_is_member) members.insert(kLast);
        persist::write_id_set(sets, members);
      }
    }
    persist::FileBuilder b;
    b.add_section(kSectionInterner, std::move(interner).take());
    b.add_section(kSectionProviders, std::move(providers).take());
    b.add_section(kSectionSets, std::move(sets).take());
    return b.finish();
  };

  for (const bool last_is_member : {true, false}) {
    const std::string bytes = image(last_is_member);
    auto loaded = TrustIndexIO::deserialize(as_span(bytes));
    ASSERT_TRUE(loaded.ok()) << loaded.message();
    auto verified = TrustIndexIO::verify(as_span(bytes));
    ASSERT_TRUE(verified.ok()) << verified.message();
    EXPECT_EQ(verified.value().intervals, last_is_member ? 16u : 0u);
    EXPECT_EQ(verified.value().providers, 4u);
    EXPECT_EQ(verified.value().certificates, kDigests);
  }
}

// Dates are day counts, and a checksummed file may carry any int64 as one.
// Formatting a date far outside the calendar overflowed int arithmetic in
// Date::civil (the `stats` op reached it on load).  The loader takes the
// days Date::parse can produce, 0000-01-01..9999-12-31, and no others.
TEST(PersistFault, DateOutsideFourDigitYearsIsRejected) {
  // One provider with one snapshot, dated `snapshot`, holding the one
  // certificate.
  const auto image = [](std::int64_t snapshot) {
    std::vector<rs::crypto::Sha256Digest> digests(1);
    persist::ByteWriter interner;
    persist::write_digests(interner, digests);
    persist::ByteWriter providers;
    providers.u64(1);
    providers.str("P");
    providers.u64(1);
    providers.i64(snapshot);
    providers.str("v1");
    persist::ByteWriter sets;
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      rs::store::IdSet members(1);
      members.insert(0);
      persist::write_id_set(sets, members);
    }
    persist::FileBuilder b;
    b.add_section(kSectionInterner, std::move(interner).take());
    b.add_section(kSectionProviders, std::move(providers).take());
    b.add_section(kSectionSets, std::move(sets).take());
    return b.finish();
  };
  const auto expect_bad_value = [](const std::string& bytes,
                                   const char* what) {
    auto loaded = TrustIndexIO::deserialize(as_span(bytes));
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.code(), LoadError::kBadValue) << what;
  };
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() - 5;
  constexpr std::int64_t kMin = rs::util::Date::kMinIsoDays;
  constexpr std::int64_t kMax = rs::util::Date::kMaxIsoDays;

  expect_bad_value(image(kHuge), "snapshot date near INT64_MAX");
  expect_bad_value(image(kMin - 1), "snapshot before 0000");
  expect_bad_value(image(kMax + 1), "snapshot after 9999");

  // The edges themselves load.
  auto first = TrustIndexIO::deserialize(as_span(image(kMin)));
  ASSERT_TRUE(first.ok()) << first.message();
  auto last = TrustIndexIO::deserialize(as_span(image(kMax)));
  ASSERT_TRUE(last.ok()) << last.message();
}

TEST(PersistFault, LoadFileOnMissingOrDirectoryPath) {
  auto missing = TrustIndexIO::load_file("/no-such-rs-index.rsix");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), LoadError::kIo);
  auto dir = TrustIndexIO::load_file("/tmp");
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.code(), LoadError::kIo);
}

}  // namespace
}  // namespace rs::query
