#include "src/formats/jks.h"

#include <algorithm>

#include "src/crypto/sha1.h"
#include "src/formats/instrument.h"
#include "src/util/hex.h"

namespace rs::formats {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Result;

namespace {

constexpr std::uint32_t kMagic = 0xFEEDFEEDu;
constexpr std::uint32_t kVersion2 = 2;
constexpr std::uint32_t kTrustedCertTag = 2;
constexpr std::string_view kWhitener = "Mighty Aphrodite";
// The most bytes writeUTF's u16 length prefix can frame.
constexpr std::size_t kMaxUtfBytes = 0xFFFF;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int s = 24; s >= 0; s -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> s));
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> s));
  }
}
// Java DataOutput.writeUTF: u16 byte length + modified UTF-8.  Root aliases
// are ASCII in practice; we restrict to ASCII and document it.  `s` holds
// at most kMaxUtfBytes.
void put_utf(std::vector<std::uint8_t>& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Password bytes as Java uses them for the digest: UTF-16BE code units.
std::vector<std::uint8_t> password_utf16(std::string_view password) {
  std::vector<std::uint8_t> out;
  out.reserve(password.size() * 2);
  for (char c : password) {
    out.push_back(0);
    out.push_back(static_cast<std::uint8_t>(c));
  }
  return out;
}

rs::crypto::Sha1Digest integrity_digest(std::string_view password,
                                        std::span<const std::uint8_t> data) {
  rs::crypto::Sha1 h;
  const auto pw = password_utf16(password);
  h.update(pw);
  h.update({reinterpret_cast<const std::uint8_t*>(kWhitener.data()),
            kWhitener.size()});
  h.update(data);
  return h.finish();
}

// Bounds-checked big-endian cursor.  Every read verifies the remaining byte
// count itself (overflow-proof: compares n against remaining(), never
// pos_ + n); a short read returns zero / an empty span and latches failed().
// Callers still call need() first for precise diagnostics, but a missed
// check can no longer read out of bounds.
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::uint8_t> data) : data_(data) {}

  bool need(std::size_t n) const { return n <= remaining(); }
  bool failed() const { return failed_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint16_t u16() { return static_cast<std::uint16_t>(be(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be(4)); }
  std::uint64_t u64() { return be(8); }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!need(n)) {
      failed_ = true;
      return {};
    }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  std::uint64_t be(std::size_t n) {
    if (!need(n)) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

std::string sanitize_alias(std::string_view cn) {
  std::string out;
  for (char c : cn) {
    if (static_cast<unsigned char>(c) < 0x80 && c != '\n' && c != '\r') {
      out.push_back(
          c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
    }
  }
  if (out.empty()) out = "root";
  return out;
}

}  // namespace

std::vector<std::uint8_t> write_jks(const std::vector<TrustEntry>& entries,
                                    rs::util::Date created,
                                    std::string_view password) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, kVersion2);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));

  const std::uint64_t millis =
      static_cast<std::uint64_t>(created.days_since_epoch()) * 86'400'000ull;
  for (const auto& e : entries) {
    const auto& cert = *e.certificate;
    put_u32(out, kTrustedCertTag);
    // A CN too long for writeUTF is cut, not the fingerprint suffix that
    // keeps aliases unique.
    const std::string suffix = " [" + cert.short_id() + "]";
    std::string alias =
        sanitize_alias(cert.subject().common_name().value_or("root"));
    alias.resize(std::min(alias.size(), kMaxUtfBytes - suffix.size()));
    put_utf(out, alias + suffix);
    put_u64(out, millis);
    put_utf(out, "X.509");
    put_u32(out, static_cast<std::uint32_t>(cert.der().size()));
    out.insert(out.end(), cert.der().begin(), cert.der().end());
  }

  const auto digest = integrity_digest(password, out);
  out.insert(out.end(), digest.begin(), digest.end());
  return out;
}

namespace {

Result<ParsedStore> parse_jks_impl(std::span<const std::uint8_t> data,
                                   std::string_view password,
                                   CertPool& pool) {
  if (data.size() < 12 + 20) {
    return Result<ParsedStore>::err("jks: file too short");
  }
  // Verify trailing integrity digest first.
  const auto body = data.first(data.size() - 20);
  const auto stored = data.last(20);
  const auto computed = integrity_digest(password, body);
  if (!std::equal(computed.begin(), computed.end(), stored.begin())) {
    return Result<ParsedStore>::err(
        "jks: integrity digest mismatch (wrong password or corrupt file)");
  }

  ByteCursor cur(body);
  if (cur.u32() != kMagic) {
    return Result<ParsedStore>::err("jks: bad magic");
  }
  const std::uint32_t version = cur.u32();
  if (version != kVersion2) {
    return Result<ParsedStore>::err("jks: unsupported version " +
                                    std::to_string(version));
  }
  const std::uint32_t count = cur.u32();

  ParsedStore out;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!cur.need(4)) return Result<ParsedStore>::err("jks: truncated entry");
    const std::uint32_t tag = cur.u32();
    if (tag != kTrustedCertTag) {
      return Result<ParsedStore>::err(
          "jks: unsupported entry tag " + std::to_string(tag) +
          " (only trusted-certificate entries belong in a root store)");
    }
    if (!cur.need(2)) return Result<ParsedStore>::err("jks: truncated alias");
    const std::uint16_t alias_len = cur.u16();
    if (!cur.need(alias_len)) {
      return Result<ParsedStore>::err("jks: truncated alias bytes");
    }
    cur.bytes(alias_len);  // alias unused beyond framing
    if (!cur.need(8 + 2)) return Result<ParsedStore>::err("jks: truncated date");
    cur.u64();  // creation date
    const std::uint16_t type_len = cur.u16();
    if (!cur.need(type_len)) {
      return Result<ParsedStore>::err("jks: truncated cert type");
    }
    const auto type_bytes = cur.bytes(type_len);
    const std::string type(type_bytes.begin(), type_bytes.end());
    if (type != "X.509") {
      return Result<ParsedStore>::err("jks: unsupported certificate type '" +
                                      type + "'");
    }
    if (!cur.need(4)) return Result<ParsedStore>::err("jks: truncated length");
    const std::uint32_t cert_len = cur.u32();
    if (!cur.need(cert_len)) {
      return Result<ParsedStore>::err("jks: truncated certificate");
    }
    const auto der = cur.bytes(cert_len);
    auto cert = pool.decode(der);
    if (!cert) {
      out.warnings.push_back("jks: undecodable certificate skipped: " +
                             cert.error());
      continue;
    }
    TrustEntry entry;
    entry.certificate = std::move(cert).take();
    // JKS has no purpose restrictions: anchor for everything.
    for (TrustPurpose p : rs::store::kAllPurposes) {
      entry.trust_for(p).level = TrustLevel::kTrustedDelegator;
    }
    out.entries.push_back(std::move(entry));
  }
  if (cur.failed()) {
    return Result<ParsedStore>::err("jks: truncated store body");
  }
  if (cur.remaining() != 0) {
    return Result<ParsedStore>::err("jks: trailing bytes after last entry");
  }
  return out;
}

}  // namespace

Result<ParsedStore> parse_jks(std::span<const std::uint8_t> data,
                              std::string_view password) {
  rs::obs::Span span("formats/jks");
  CertPool pool;
  auto result = parse_jks_impl(data, password, pool);
  detail::note_parse(span, data.size(), result, pool);
  return result;
}

}  // namespace rs::formats
