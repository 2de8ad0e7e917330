#include "src/store/persist.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "src/util/byte_order.h"

namespace rs::store::persist {

namespace {

using rs::util::load_le32;
using rs::util::load_le64;
using rs::util::store_le32;
using rs::util::store_le64;

// XXH64 primes (public-domain construction by Yann Collet).
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  acc *= kPrime1;
  return acc;
}

inline std::uint64_t xxh_merge_round(std::uint64_t h,
                                     std::uint64_t v) noexcept {
  h ^= xxh_round(0, v);
  h = h * kPrime1 + kPrime4;
  return h;
}

}  // namespace

std::uint64_t hash64(std::span<const std::uint8_t> data,
                     std::uint64_t seed) noexcept {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  std::uint64_t h;

  if (data.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const std::uint8_t* const limit = end - 32;
    do {
      v1 = xxh_round(v1, load_le64(p));
      v2 = xxh_round(v2, load_le64(p + 8));
      v3 = xxh_round(v3, load_le64(p + 16));
      v4 = xxh_round(v4, load_le64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge_round(h, v1);
    h = xxh_merge_round(h, v2);
    h = xxh_merge_round(h, v3);
    h = xxh_merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<std::uint64_t>(data.size());
  while (p + 8 <= end) {
    h ^= xxh_round(0, load_le64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(load_le32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::uint64_t hash64(std::string_view data, std::uint64_t seed) noexcept {
  return hash64(
      std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                data.size()),
      seed);
}

const char* to_string(LoadError e) noexcept {
  switch (e) {
    case LoadError::kIo: return "io_error";
    case LoadError::kTruncated: return "truncated";
    case LoadError::kBadMagic: return "bad_magic";
    case LoadError::kBadVersion: return "bad_version";
    case LoadError::kBadFlags: return "bad_flags";
    case LoadError::kBadHeader: return "bad_header";
    case LoadError::kBadSectionTable: return "bad_section_table";
    case LoadError::kChecksum: return "checksum_mismatch";
    case LoadError::kCountOverflow: return "count_overflow";
    case LoadError::kBadValue: return "bad_value";
    case LoadError::kTrailingBytes: return "trailing_bytes";
  }
  return "?";
}

std::string LoadFailure::message() const {
  std::string out = to_string(code);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) { store_le32(run(4).data(), v); }

void ByteWriter::u64(std::uint64_t v) { store_le64(run(8).data(), v); }

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(const void* data, std::size_t n) {
  out_.append(static_cast<const char*>(data), n);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

std::span<std::uint8_t> ByteWriter::run(std::size_t n) {
  const std::size_t at = out_.size();
  out_.resize(at + n);
  return {reinterpret_cast<std::uint8_t*>(out_.data()) + at, n};
}

// --- ByteReader -------------------------------------------------------------

void ByteReader::fail(LoadError code, std::string detail) {
  if (!fail_) fail_ = LoadFailure{code, std::move(detail)};
}

std::uint32_t ByteReader::u32() {
  if (!ok()) return 0;
  if (remaining() < 4) {
    fail(LoadError::kTruncated, "u32 past end of input");
    return 0;
  }
  const std::uint32_t v = load_le32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!ok()) return 0;
  if (remaining() < 8) {
    fail(LoadError::kTruncated, "u64 past end of input");
    return 0;
  }
  const std::uint64_t v = load_le64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

bool ByteReader::bytes(void* out, std::size_t n) {
  if (!ok()) return false;
  if (remaining() < n) {
    fail(LoadError::kTruncated, "byte run past end of input");
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

std::uint64_t ByteReader::count(std::uint64_t cap, std::size_t elem_bytes,
                                const char* what) {
  const std::uint64_t n = u64();
  if (!ok()) return 0;
  if (n > cap) {
    fail(LoadError::kCountOverflow,
         std::string(what) + " count " + std::to_string(n) + " exceeds cap " +
             std::to_string(cap));
    return 0;
  }
  // Overflow-safe: divide the bytes we actually have instead of
  // multiplying the untrusted count.
  if (elem_bytes != 0 && n > remaining() / elem_bytes) {
    fail(LoadError::kCountOverflow,
         std::string(what) + " count " + std::to_string(n) +
             " exceeds the bytes present");
    return 0;
  }
  return n;
}

std::string ByteReader::str(std::uint64_t max_len, const char* what) {
  const std::uint32_t len = u32();
  if (!ok()) return {};
  if (len > max_len) {
    fail(LoadError::kCountOverflow,
         std::string(what) + " length " + std::to_string(len) +
             " exceeds cap " + std::to_string(max_len));
    return {};
  }
  if (len > remaining()) {
    fail(LoadError::kTruncated, std::string(what) + " past end of input");
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::span<const std::uint8_t> ByteReader::run(std::size_t n) {
  if (!ok()) return {};
  if (remaining() < n) {
    fail(LoadError::kTruncated, "record run past end of input");
    return {};
  }
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

// --- FileBuilder ------------------------------------------------------------

void FileBuilder::add_section(std::uint32_t id, std::string payload) {
  sections_.push_back({id, std::move(payload)});
}

std::string FileBuilder::finish() const {
  const std::size_t table_bytes = sections_.size() * kSectionEntryBytes;
  std::uint64_t offset = kHeaderBytes + table_bytes;
  std::uint64_t total = offset;
  for (const auto& s : sections_) total += s.payload.size();

  ByteWriter header;
  header.bytes(kMagic.data(), kMagic.size());
  header.u32(kFormatVersion);
  header.u32(0);  // flags
  header.u32(static_cast<std::uint32_t>(sections_.size()));
  header.u32(0);  // reserved
  header.u64(total);
  header.u64(0);  // header checksum placeholder

  ByteWriter table;
  for (const auto& s : sections_) {
    table.u32(s.id);
    table.u32(0);  // reserved
    table.u64(offset);
    table.u64(s.payload.size());
    table.u64(hash64(s.payload));
    offset += s.payload.size();
  }

  std::string out = std::move(header).take();
  out.reserve(static_cast<std::size_t>(total));
  out += table.data();
  // The header checksum covers the header (with its own field zeroed, as
  // it is right now) plus the whole section table.
  store_le64(reinterpret_cast<std::uint8_t*>(out.data()) + 32, hash64(out));
  for (const auto& s : sections_) out += s.payload;
  return out;
}

// --- FileView ---------------------------------------------------------------

Loaded<FileView> FileView::parse(std::span<const std::uint8_t> file) {
  using L = Loaded<FileView>;
  if (file.size() < kHeaderBytes) {
    return L::fail(LoadError::kTruncated,
                   "file smaller than the fixed header (" +
                       std::to_string(file.size()) + " bytes)");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), file.begin())) {
    return L::fail(LoadError::kBadMagic, "not an RSIX index file");
  }
  const std::uint32_t version = load_le32(file.data() + 8);
  if (version != kFormatVersion) {
    return L::fail(LoadError::kBadVersion,
                   "format version " + std::to_string(version) +
                       " (this build speaks " +
                       std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t flags = load_le32(file.data() + 12);
  if (flags != 0) {
    return L::fail(LoadError::kBadFlags,
                   "unknown feature flags 0x" + std::to_string(flags));
  }
  const std::uint32_t section_count = load_le32(file.data() + 16);
  if (section_count > kMaxSections) {
    return L::fail(LoadError::kBadSectionTable,
                   "section count " + std::to_string(section_count) +
                       " exceeds cap " + std::to_string(kMaxSections));
  }
  const std::uint32_t reserved = load_le32(file.data() + 20);
  if (reserved != 0) {
    return L::fail(LoadError::kBadHeader, "reserved header field not zero");
  }
  const std::uint64_t declared_bytes = load_le64(file.data() + 24);
  if (declared_bytes > file.size()) {
    return L::fail(LoadError::kTruncated,
                   "header declares " + std::to_string(declared_bytes) +
                       " bytes, file has " + std::to_string(file.size()));
  }
  if (declared_bytes < file.size()) {
    return L::fail(LoadError::kTrailingBytes,
                   std::to_string(file.size() - declared_bytes) +
                       " byte(s) beyond the declared file end");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(section_count) * kSectionEntryBytes;
  if (kHeaderBytes + table_bytes > file.size()) {
    return L::fail(LoadError::kTruncated, "section table past end of file");
  }

  // Verify the header checksum: header with the checksum field zeroed,
  // plus the section table.
  const std::uint64_t stored_check = load_le64(file.data() + 32);
  std::vector<std::uint8_t> covered(
      file.begin(),
      file.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + table_bytes));
  std::fill(covered.begin() + 32, covered.begin() + 40, std::uint8_t{0});
  if (hash64(covered) != stored_check) {
    return L::fail(LoadError::kChecksum, "header checksum mismatch");
  }

  FileView view;
  std::uint64_t expected_offset = kHeaderBytes + table_bytes;
  std::uint32_t previous_id = 0;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint8_t* entry =
        file.data() + kHeaderBytes + i * kSectionEntryBytes;
    const std::uint32_t id = load_le32(entry);
    const std::uint32_t entry_reserved = load_le32(entry + 4);
    const std::uint64_t offset = load_le64(entry + 8);
    const std::uint64_t bytes = load_le64(entry + 16);
    const std::uint64_t checksum = load_le64(entry + 24);
    if (entry_reserved != 0) {
      return L::fail(LoadError::kBadSectionTable,
                     "reserved section field not zero");
    }
    if (i > 0 && id <= previous_id) {
      return L::fail(LoadError::kBadSectionTable,
                     "section ids not strictly ascending");
    }
    previous_id = id;
    // Canonical layout: sections are contiguous and in table order, so a
    // single running offset both validates and locates every payload
    // without any overlap analysis.
    if (offset != expected_offset) {
      return L::fail(LoadError::kBadSectionTable,
                     "section " + std::to_string(id) +
                         " offset not contiguous");
    }
    if (bytes > file.size() - offset) {
      return L::fail(LoadError::kTruncated,
                     "section " + std::to_string(id) + " extends past "
                     "end of file");
    }
    const auto payload = file.subspan(offset, bytes);
    if (hash64(payload) != checksum) {
      return L::fail(LoadError::kChecksum,
                     "section " + std::to_string(id) + " checksum mismatch");
    }
    view.sections_.push_back({id, payload});
    expected_offset = offset + bytes;
  }
  if (expected_offset != file.size()) {
    return L::fail(LoadError::kTrailingBytes,
                   "bytes beyond the last section");
  }
  return view;
}

std::optional<std::span<const std::uint8_t>> FileView::section(
    std::uint32_t id) const noexcept {
  for (const auto& s : sections_) {
    if (s.id == id) return s.payload;
  }
  return std::nullopt;
}

// --- atomic write -----------------------------------------------------------

rs::util::Result<std::uint64_t> atomic_write_file(const std::string& path,
                                                  std::string_view bytes) {
  using R = rs::util::Result<std::uint64_t>;
  namespace fs = std::filesystem;
  const fs::path target(path);
  fs::path dir = target.parent_path();
  if (dir.empty()) dir = ".";

  // Unique temp name in the same directory so the rename is atomic on the
  // same filesystem.
  std::string temp_template = (dir / (target.filename().string() +
                                      ".tmp.XXXXXX")).string();
  std::vector<char> temp_buf(temp_template.begin(), temp_template.end());
  temp_buf.push_back('\0');
  const int fd = mkstemp(temp_buf.data());
  if (fd < 0) {
    return R::err("cannot create temp file near " + path + ": " +
                  std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
  }
  const std::string temp_path(temp_buf.data());

  auto fail_cleanup = [&](const std::string& why) {
    close(fd);
    unlink(temp_path.c_str());
    return R::err(why);
  };

  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail_cleanup("write failed: " + temp_path);
    }
    written += static_cast<std::size_t>(n);
  }
  // Single fsync: the data is durable before the rename publishes it.
  if (fsync(fd) != 0) return fail_cleanup("fsync failed: " + temp_path);
  if (close(fd) != 0) {
    unlink(temp_path.c_str());
    return R::err("close failed: " + temp_path);
  }
  if (rename(temp_path.c_str(), path.c_str()) != 0) {
    unlink(temp_path.c_str());
    return R::err("rename failed: " + temp_path + " -> " + path);
  }
  return static_cast<std::uint64_t>(bytes.size());
}

// --- MappedFile -------------------------------------------------------------

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) munmap(data_, size_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) munmap(data_, size_);
}

Loaded<MappedFile> MappedFile::open(const std::string& path) {
  using L = Loaded<MappedFile>;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return L::fail(LoadError::kIo,
                   "cannot open " + path + ": " +
                       std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
  }
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    close(fd);
    return L::fail(LoadError::kIo, "cannot stat " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    close(fd);
    return L::fail(LoadError::kIo, path + " is not a regular file");
  }
  MappedFile mapped;
  mapped.size_ = static_cast<std::size_t>(st.st_size);
  if (mapped.size_ > 0) {
    void* p = mmap(nullptr, mapped.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      close(fd);
      mapped.size_ = 0;
      return L::fail(LoadError::kIo, "cannot mmap " + path);
    }
    mapped.data_ = p;
  }
  close(fd);
  return mapped;
}

// --- store-type codecs ------------------------------------------------------

void write_id_set(ByteWriter& w, const IdSet& set) {
  const auto& words = set.words();
  std::size_t n = words.size();
  while (n > 0 && words[n - 1] == 0) --n;
  std::uint8_t* out = w.run(8 * (n + 1)).data();
  store_le64(out, n);
  for (std::size_t i = 0; i < n; ++i) store_le64(out + 8 * (i + 1), words[i]);
}

IdSet read_id_set(ByteReader& r, std::size_t universe) {
  const std::uint64_t max_words = (universe + 63) / 64;
  const std::uint64_t n = r.count(max_words, 8, "id-set word");
  const auto run = r.run(static_cast<std::size_t>(n) * 8);
  if (!r.ok()) return IdSet();
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = load_le64(run.data() + 8 * i);
  }
  if (n > 0 && words.back() == 0) {
    r.fail(LoadError::kBadValue, "non-canonical id set (trailing zero word)");
    return IdSet();
  }
  if (n == max_words && universe % 64 != 0 && n > 0) {
    const std::uint64_t mask = ~((std::uint64_t{1} << (universe % 64)) - 1);
    if ((words.back() & mask) != 0) {
      r.fail(LoadError::kBadValue, "id set bit beyond the universe");
      return IdSet();
    }
  }
  return IdSet::from_words(std::move(words));
}

// Digests are copied as one run of 32-byte arrays.
static_assert(sizeof(rs::crypto::Sha256Digest) == 32);

void write_digests(ByteWriter& w,
                   const std::vector<rs::crypto::Sha256Digest>& digests) {
  w.u64(digests.size());
  if (!digests.empty()) {
    w.bytes(digests.data(), digests.size() * 32);
  }
}

std::vector<rs::crypto::Sha256Digest> read_digests(ByteReader& r) {
  const std::uint64_t n = r.count(kMaxCerts, 32, "certificate digest");
  const auto run = r.run(static_cast<std::size_t>(n) * 32);
  if (!r.ok()) return {};
  std::vector<rs::crypto::Sha256Digest> out(static_cast<std::size_t>(n));
  if (n > 0) std::memcpy(out.data(), run.data(), run.size());
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (!(out[i - 1] < out[i])) {
      r.fail(LoadError::kBadValue,
             "certificate digests not strictly ascending");
      return {};
    }
  }
  return out;
}

}  // namespace rs::store::persist
