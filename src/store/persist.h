// Binary persistence machinery for the on-disk index format (RSIX).
//
// The serving layer must cold-start in milliseconds, which means the
// compiled CertInterner + TrustIndex have to round-trip through a durable,
// verifiable on-disk representation instead of being rebuilt from raw
// snapshots on every start.  This module is the format substrate that
// src/query/index_io.cpp builds on:
//
//   * a 64-bit xxhash-style checksum (`hash64`, the XXH64 construction),
//   * a typed error model — every way a file can lie maps to a LoadError,
//   * ByteWriter / ByteReader: fixed-width little-endian primitives where
//     every read is bounds-checked by construction and every count field
//     is validated against both an explicit cap and the bytes actually
//     remaining (so a hostile length prefix can never drive allocation),
//   * FileBuilder / FileView: the magic/version/flags header, a section
//     table, and per-section checksums.  FileView::parse verifies the
//     header checksum (which covers the section table) and every section
//     checksum before any payload byte is interpreted,
//   * atomic_write_file: temp file in the target directory, single fsync,
//     rename — readers never observe a torn file,
//   * MappedFile: read-only mmap of a file for zero-copy parsing.
//
// The format is deliberately mmap-friendly: flat fixed-width LE arrays,
// no pointers, contiguous sections.  See docs/PERSISTENCE.md for the
// layout diagram, the versioning policy, and the corruption-handling
// contract the fault-injection suite enforces.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/id_set.h"
#include "src/util/result.h"

namespace rs::store::persist {

/// XXH64-style 64-bit hash over `data`.  Used for the header and section
/// checksums; not cryptographic — it detects corruption, not tampering.
std::uint64_t hash64(std::span<const std::uint8_t> data,
                     std::uint64_t seed = 0) noexcept;

/// Convenience overload for string payloads.
std::uint64_t hash64(std::string_view data, std::uint64_t seed = 0) noexcept;

// --- typed error model ------------------------------------------------------

/// Every distinct way a persisted file can lie to the loader.  The
/// fault-injection suite (ctest label `persist_fault`) asserts that each
/// corruption class fails closed with one of these — never a crash.
enum class LoadError : std::uint8_t {
  kIo,             // open/stat/map/read failed at the OS level
  kTruncated,      // fewer bytes than the header/sections declare
  kBadMagic,       // not an RSIX file at all
  kBadVersion,     // a version this build does not speak
  kBadFlags,       // unknown feature bits set
  kBadHeader,      // malformed fixed header fields
  kBadSectionTable,// section table malformed (ids, order, offsets, sizes)
  kChecksum,       // header or section checksum mismatch
  kCountOverflow,  // a count field exceeds its cap or the bytes present
  kBadValue,       // a decoded value violates a format invariant
  kTrailingBytes,  // bytes beyond the declared end of a section or file
};

const char* to_string(LoadError e) noexcept;

/// A typed failure plus human-readable context.
struct LoadFailure {
  LoadError code = LoadError::kIo;
  std::string detail;

  /// "<code>: <detail>" for logs and CLI diagnostics.
  std::string message() const;
};

/// Either a loaded T or a typed LoadFailure (the persist-layer analogue of
/// rs::util::Result, which carries only a string).
template <typename T>
class [[nodiscard]] Loaded {
 public:
  Loaded(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-*)
  static Loaded fail(LoadError code, std::string detail) {
    return Loaded(LoadFailure{code, std::move(detail)});
  }
  static Loaded fail(LoadFailure failure) { return Loaded(std::move(failure)); }

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& take() && { return std::get<T>(std::move(data_)); }

  const LoadFailure& failure() const { return std::get<LoadFailure>(data_); }
  LoadError code() const { return failure().code; }
  std::string message() const { return failure().message(); }

  /// Propagates this failure into a Loaded of another type.
  template <typename U>
  Loaded<U> propagate() const {
    return Loaded<U>::fail(failure());
  }

 private:
  explicit Loaded(LoadFailure f) : data_(std::move(f)) {}
  std::variant<T, LoadFailure> data_;
};

// --- caps -------------------------------------------------------------------
// Hard ceilings on every count field, enforced before any allocation or
// multiplication that scales with file content.  Generous enough for the
// mega-ecosystem axis (ROADMAP item 1), small enough that a hostile field
// can never wrap arithmetic.

inline constexpr std::uint64_t kMaxCerts = std::uint64_t{1} << 27;
inline constexpr std::uint64_t kMaxProviders = std::uint64_t{1} << 20;
inline constexpr std::uint64_t kMaxDatesPerProvider = std::uint64_t{1} << 22;
inline constexpr std::uint64_t kMaxNameBytes = 256;
inline constexpr std::uint64_t kMaxVersionBytes = 128;
inline constexpr std::uint64_t kMaxSections = 16;

// --- primitive writer / reader ----------------------------------------------

/// Appends fixed-width little-endian primitives to a byte string.
class ByteWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void bytes(const void* data, std::size_t n);
  /// u32 length prefix + raw bytes.
  void str(std::string_view s);
  /// Appends `n` bytes for the caller to fill with the stores of
  /// src/util/byte_order.h: a run of fixed-width fields written with one
  /// append.  The view is valid until the next write.
  std::span<std::uint8_t> run(std::size_t n);

  std::size_t size() const noexcept { return out_.size(); }
  std::string take() && { return std::move(out_); }
  const std::string& data() const noexcept { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked cursor over an immutable byte span.
///
/// Every accessor validates the remaining length first; the first failure
/// latches a typed LoadFailure and turns all subsequent reads into cheap
/// no-ops returning zero values, so straight-line parse code never needs
/// an early return to stay in bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const noexcept { return !fail_.has_value(); }
  const LoadFailure& failure() const { return *fail_; }

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  /// Copies `n` bytes out; on underrun fails and leaves `out` untouched.
  bool bytes(void* out, std::size_t n);

  /// Reads a u64 count and validates `count <= cap` AND
  /// `count <= remaining / elem_bytes` (overflow-safe), failing with
  /// kCountOverflow otherwise.  Returns 0 on any failure so callers can
  /// loop over the result without re-checking.
  std::uint64_t count(std::uint64_t cap, std::size_t elem_bytes,
                      const char* what);

  /// u32 length prefix (<= max_len and <= remaining) + bytes.
  std::string str(std::uint64_t max_len, const char* what);

  /// The next `n` bytes as one view, for a run of fixed-width records
  /// whose length count() has already bounded.  Fails kTruncated on
  /// underrun; returns an empty view on any failure.
  std::span<const std::uint8_t> run(std::size_t n);

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool finished() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

  /// Latches a failure (first one wins).
  void fail(LoadError code, std::string detail);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::optional<LoadFailure> fail_;
};

// --- file framing -----------------------------------------------------------

/// File magic: "RSIX" + format generation + \r\n\x1a sentinel bytes that
/// catch text-mode mangling (the PNG trick).
inline constexpr std::array<std::uint8_t, 8> kMagic = {
    'R', 'S', 'I', 'X', '0', '1', '\r', '\n'};
inline constexpr std::uint32_t kFormatVersion = 2;
/// Size of the fixed header preceding the section table.
inline constexpr std::size_t kHeaderBytes = 40;
/// Size of one section-table entry.
inline constexpr std::size_t kSectionEntryBytes = 32;

/// One parsed section: its id and checksum-verified payload view.
struct SectionView {
  std::uint32_t id = 0;
  std::span<const std::uint8_t> payload;
};

/// Assembles a file: fixed header, section table, contiguous payloads,
/// per-section checksums, and a header checksum covering the header and
/// the table.  Sections are laid out in the order they were added; the
/// loader requires ids to be strictly ascending, so add them sorted.
class FileBuilder {
 public:
  void add_section(std::uint32_t id, std::string payload);
  /// The complete file image (deterministic for identical inputs).
  std::string finish() const;

 private:
  struct Pending {
    std::uint32_t id;
    std::string payload;
  };
  std::vector<Pending> sections_;
};

/// Parsed, checksum-verified view of a file image.  Borrows the input
/// span; keep the backing bytes (e.g. the MappedFile) alive while using it.
class FileView {
 public:
  static Loaded<FileView> parse(std::span<const std::uint8_t> file);

  const std::vector<SectionView>& sections() const noexcept {
    return sections_;
  }
  /// Payload for a section id, or nullopt when absent.
  std::optional<std::span<const std::uint8_t>> section(
      std::uint32_t id) const noexcept;

 private:
  std::vector<SectionView> sections_;
};

/// Writes `bytes` to `path` atomically: unique temp file in the same
/// directory, one fsync, rename over the target.  Returns the byte count.
rs::util::Result<std::uint64_t> atomic_write_file(const std::string& path,
                                                  std::string_view bytes);

/// Read-only memory map of a whole file.  Move-only RAII; unmaps on
/// destruction.  Empty files map to an empty span.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  static Loaded<MappedFile> open(const std::string& path);

  std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

// --- store-type codecs ------------------------------------------------------

/// Canonical IdSet encoding: u64 word count (trailing zero words trimmed)
/// + packed LE words.  Trimming makes serialization a pure function of the
/// logical set, which is what the byte-equivalence tests key on.
void write_id_set(ByteWriter& w, const IdSet& set);

/// Reads an IdSet over a universe of `universe` IDs.  Fails kCountOverflow
/// when the word count exceeds the universe, kBadValue when the encoding
/// is non-canonical (trailing zero word) or sets a bit >= universe.
IdSet read_id_set(ByteReader& r, std::size_t universe);

/// u64 count + count * 32-byte digests, strictly ascending (the interner's
/// canonical order — also what makes IDs a pure function of the universe).
void write_digests(ByteWriter& w,
                   const std::vector<rs::crypto::Sha256Digest>& digests);
std::vector<rs::crypto::Sha256Digest> read_digests(ByteReader& r);

}  // namespace rs::store::persist
