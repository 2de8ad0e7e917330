#include "src/formats/certdata.h"

#include <cstdio>
#include <map>
#include <optional>

#include "src/crypto/sha1.h"
#include "src/formats/instrument.h"
#include "src/util/hex.h"
#include "src/util/strings.h"

namespace rs::formats {

using rs::store::PurposeTrust;
using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Result;

namespace {

// ---------------------------------------------------------------------------
// Tokenizer: certdata.txt is line-oriented.  An attribute line is
//   CKA_<NAME> <TYPE> <VALUE...>
// where MULTILINE_OCTAL values continue on following lines until END.
// ---------------------------------------------------------------------------

struct Attribute {
  std::string name;
  std::string type;
  std::string scalar;               // for one-line values
  std::vector<std::uint8_t> bytes;  // for MULTILINE_OCTAL
};

struct RawObject {
  std::vector<Attribute> attrs;

  const Attribute* find(std::string_view name) const {
    for (const auto& a : attrs) {
      if (a.name == name) return &a;
    }
    return nullptr;
  }
};

class LineCursor {
 public:
  explicit LineCursor(std::string_view text)
      : lines_(rs::util::split_lines(text)) {}

  bool done() const { return idx_ >= lines_.size(); }
  std::string_view peek() const { return lines_[idx_]; }
  std::string_view next() { return lines_[idx_++]; }
  std::size_t line_number() const { return idx_; }

 private:
  std::vector<std::string_view> lines_;
  std::size_t idx_ = 0;
};

bool is_noise(std::string_view line) {
  const std::string_view t = rs::util::trim(line);
  return t.empty() || t.front() == '#';
}

// Parses the octal continuation lines of a MULTILINE_OCTAL value.
Result<std::vector<std::uint8_t>> parse_octal_block(LineCursor& cur) {
  std::vector<std::uint8_t> out;
  while (!cur.done()) {
    const std::string_view line = rs::util::trim(cur.next());
    if (line == "END") return out;
    std::size_t i = 0;
    while (i < line.size()) {
      if (line[i] != '\\') {
        return Result<std::vector<std::uint8_t>>::err(
            "certdata: expected octal escape at line " +
            std::to_string(cur.line_number()));
      }
      if (line.size() - i < 4) {
        return Result<std::vector<std::uint8_t>>::err(
            "certdata: truncated octal escape at line " +
            std::to_string(cur.line_number()));
      }
      int v = 0;
      for (std::size_t d = 1; d <= 3; ++d) {
        const char c = line[i + d];
        if (c < '0' || c > '7') {
          return Result<std::vector<std::uint8_t>>::err(
              "certdata: bad octal digit at line " +
              std::to_string(cur.line_number()));
        }
        v = v * 8 + (c - '0');
      }
      if (v > 255) {
        return Result<std::vector<std::uint8_t>>::err(
            "certdata: octal escape out of range at line " +
            std::to_string(cur.line_number()));
      }
      out.push_back(static_cast<std::uint8_t>(v));
      i += 4;
    }
  }
  return Result<std::vector<std::uint8_t>>::err(
      "certdata: unterminated MULTILINE_OCTAL");
}

// Splits objects: a new object begins at each CKA_CLASS line.
Result<std::vector<RawObject>> lex_objects(std::string_view text) {
  std::vector<RawObject> objects;
  LineCursor cur(text);
  bool seen_begindata = false;
  RawObject current;
  bool in_object = false;

  auto flush = [&] {
    if (in_object) objects.push_back(std::move(current));
    current = RawObject{};
    in_object = false;
  };

  while (!cur.done()) {
    const std::string_view raw = cur.next();
    if (is_noise(raw)) continue;
    const std::string_view line = rs::util::trim(raw);
    if (line == "BEGINDATA") {
      seen_begindata = true;
      continue;
    }
    const auto tokens = rs::util::split_ws(line);
    if (tokens.empty()) continue;
    if (!rs::util::starts_with(tokens[0], "CKA_")) {
      return Result<std::vector<RawObject>>::err(
          "certdata: unexpected line " + std::to_string(cur.line_number()) +
          ": '" + std::string(line) + "'");
    }
    if (tokens.size() < 2) {
      return Result<std::vector<RawObject>>::err(
          "certdata: attribute missing type at line " +
          std::to_string(cur.line_number()));
    }
    Attribute attr;
    attr.name = std::string(tokens[0]);
    attr.type = std::string(tokens[1]);
    if (attr.name == "CKA_CLASS") flush(), in_object = true;

    if (tokens.size() >= 3 && tokens[2] == "MULTILINE_OCTAL") {
      auto bytes = parse_octal_block(cur);
      if (!bytes) return bytes.propagate<std::vector<RawObject>>();
      attr.bytes = std::move(bytes).take();
    } else if (attr.type == "MULTILINE_OCTAL") {
      auto bytes = parse_octal_block(cur);
      if (!bytes) return bytes.propagate<std::vector<RawObject>>();
      attr.bytes = std::move(bytes).take();
    } else if (attr.type == "UTF8") {
      // Quoted string: everything between the first and last '"'.
      const std::size_t open = line.find('"');
      const std::size_t close = line.rfind('"');
      if (open == std::string_view::npos || close <= open) {
        return Result<std::vector<RawObject>>::err(
            "certdata: malformed UTF8 value at line " +
            std::to_string(cur.line_number()));
      }
      attr.scalar = std::string(line.substr(open + 1, close - open - 1));
    } else {
      // Scalar: remaining tokens joined (usually exactly one).
      std::string rest;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (!rest.empty()) rest += ' ';
        rest += std::string(tokens[i]);
      }
      attr.scalar = rest;
    }
    if (!in_object) {
      // Attributes before any CKA_CLASS (e.g. CVS_ID in old files) are
      // ignored, matching NSS's own parser behaviour.
      continue;
    }
    current.attrs.push_back(std::move(attr));
  }
  flush();
  if (!seen_begindata && !objects.empty()) {
    return Result<std::vector<RawObject>>::err(
        "certdata: missing BEGINDATA header");
  }
  return objects;
}

// ---------------------------------------------------------------------------
// Semantic layer.
// ---------------------------------------------------------------------------

std::optional<TrustLevel> parse_trust_level(std::string_view s) {
  if (s == "CKT_NSS_TRUSTED_DELEGATOR") return TrustLevel::kTrustedDelegator;
  if (s == "CKT_NSS_MUST_VERIFY_TRUST") return TrustLevel::kMustVerify;
  if (s == "CKT_NSS_NOT_TRUSTED") return TrustLevel::kDistrusted;
  // Legacy spellings seen in very old snapshots.
  if (s == "CKT_NETSCAPE_TRUSTED_DELEGATOR") return TrustLevel::kTrustedDelegator;
  if (s == "CKT_NETSCAPE_MUST_VERIFY_TRUST" || s == "CKT_NETSCAPE_VALID")
    return TrustLevel::kMustVerify;
  if (s == "CKT_NETSCAPE_UNTRUSTED") return TrustLevel::kDistrusted;
  return std::nullopt;
}

const char* trust_level_token(TrustLevel l) {
  switch (l) {
    case TrustLevel::kTrustedDelegator:
      return "CKT_NSS_TRUSTED_DELEGATOR";
    case TrustLevel::kMustVerify:
      return "CKT_NSS_MUST_VERIFY_TRUST";
    case TrustLevel::kDistrusted:
      return "CKT_NSS_NOT_TRUSTED";
  }
  return "CKT_NSS_MUST_VERIFY_TRUST";
}

// CKA_NSS_SERVER_DISTRUST_AFTER carries "YYMMDDHHMMSSZ" as octal bytes.
std::optional<rs::util::Date> parse_distrust_after(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != 13 || bytes.back() != 'Z') return std::nullopt;
  auto digits = [&](std::size_t pos) {
    return (bytes[pos] - '0') * 10 + (bytes[pos + 1] - '0');
  };
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] < '0' || bytes[i] > '9') return std::nullopt;
  }
  const int yy = digits(0);
  const int year = yy >= 50 ? 1900 + yy : 2000 + yy;
  return rs::util::Date::from_civil({year, digits(2), digits(4)});
}

std::string encode_distrust_after(rs::util::Date d) {
  const auto c = d.civil();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d%02d%02d000000Z", c.year % 100, c.month,
                c.day);
  return buf;
}

// Labels come from certificate subjects, i.e. attacker-influenced bytes.
// Keep only printable ASCII and drop '"' so the emitted CKA_LABEL line can
// always be re-read by the quoted-string lexer above.
std::string sanitize_label(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7F && c != '"') out.push_back(c);
  }
  if (out.empty()) out = "Unnamed Root";
  return out;
}

std::string octal_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\%03o", bytes[i]);
    out += buf;
    if ((i + 1) % 16 == 0 && i + 1 != bytes.size()) out += '\n';
  }
  out += "\nEND\n";
  return out;
}

Result<ParsedStore> parse_certdata_impl(std::string_view text,
                                        CertPool& pool) {
  auto objects = lex_objects(text);
  if (!objects) return objects.propagate<ParsedStore>();

  ParsedStore out;

  // Pass 1: certificates, keyed by SHA-1 of DER.
  struct PendingCert {
    std::shared_ptr<const rs::x509::Certificate> cert;
    bool has_trust = false;
  };
  std::map<std::string, PendingCert> by_sha1;  // hex sha1 -> cert
  std::vector<std::string> order;              // preserve file order

  for (const auto& obj : objects.value()) {
    const Attribute* cls = obj.find("CKA_CLASS");
    if (cls == nullptr) continue;
    if (cls->scalar != "CKO_CERTIFICATE") continue;
    const Attribute* value = obj.find("CKA_VALUE");
    if (value == nullptr || value->bytes.empty()) {
      out.warnings.push_back("certificate object without CKA_VALUE skipped");
      continue;
    }
    auto decoded = pool.decode(value->bytes);
    if (!decoded) {
      out.warnings.push_back("undecodable certificate skipped: " +
                             decoded.error());
      continue;
    }
    auto cert = std::move(decoded).take();
    const std::string sha1_hex = rs::util::hex_encode(cert->sha1());
    if (by_sha1.contains(sha1_hex)) {
      out.warnings.push_back("duplicate certificate object for SHA1 " +
                             sha1_hex);
      continue;
    }
    by_sha1.emplace(sha1_hex, PendingCert{std::move(cert), false});
    order.push_back(sha1_hex);
  }

  // Pass 2: trust objects matched by CKA_CERT_SHA1_HASH.
  std::map<std::string, TrustEntry> entries;
  for (const auto& obj : objects.value()) {
    const Attribute* cls = obj.find("CKA_CLASS");
    if (cls == nullptr) continue;
    if (cls->scalar != "CKO_NSS_TRUST" && cls->scalar != "CKO_NETSCAPE_TRUST")
      continue;
    const Attribute* sha1 = obj.find("CKA_CERT_SHA1_HASH");
    if (sha1 == nullptr || sha1->bytes.empty()) {
      out.warnings.push_back("trust object without SHA1 hash skipped");
      continue;
    }
    const std::string sha1_hex = rs::util::hex_encode(sha1->bytes);
    const auto it = by_sha1.find(sha1_hex);
    if (it == by_sha1.end()) {
      out.warnings.push_back("trust object references unknown SHA1 " +
                             sha1_hex);
      continue;
    }
    if (it->second.has_trust) {
      out.warnings.push_back("duplicate trust object for SHA1 " + sha1_hex);
      continue;
    }
    it->second.has_trust = true;

    TrustEntry entry;
    entry.certificate = it->second.cert;
    struct PurposeAttr {
      const char* name;
      TrustPurpose purpose;
    };
    static constexpr PurposeAttr kPurposeAttrs[] = {
        {"CKA_TRUST_SERVER_AUTH", TrustPurpose::kServerAuth},
        {"CKA_TRUST_EMAIL_PROTECTION", TrustPurpose::kEmailProtection},
        {"CKA_TRUST_CODE_SIGNING", TrustPurpose::kCodeSigning},
    };
    for (const auto& pa : kPurposeAttrs) {
      if (const Attribute* a = obj.find(pa.name)) {
        const auto level = parse_trust_level(a->scalar);
        if (!level) {
          out.warnings.push_back(std::string("unknown trust level '") +
                                 a->scalar + "' for " + pa.name);
          continue;
        }
        entry.trust_for(pa.purpose).level = *level;
      }
    }
    if (const Attribute* a = obj.find("CKA_NSS_SERVER_DISTRUST_AFTER")) {
      if (!a->bytes.empty()) {
        const auto date = parse_distrust_after(a->bytes);
        if (date) {
          entry.trust_for(TrustPurpose::kServerAuth).distrust_after = date;
        } else {
          out.warnings.push_back("malformed CKA_NSS_SERVER_DISTRUST_AFTER for " +
                                 sha1_hex);
        }
      }
      // CK_BBOOL CK_FALSE means "no cutoff" — nothing to record.
    }
    entries.emplace(sha1_hex, std::move(entry));
  }

  // Emit in file order; certificates without trust objects default to
  // must-verify everywhere (NSS treats them as untrusted intermediates).
  for (const auto& sha1_hex : order) {
    const auto it = entries.find(sha1_hex);
    if (it != entries.end()) {
      out.entries.push_back(it->second);
    } else {
      out.warnings.push_back("certificate without trust object: " + sha1_hex);
      TrustEntry entry;
      entry.certificate = by_sha1.at(sha1_hex).cert;
      out.entries.push_back(std::move(entry));
    }
  }
  return out;
}

}  // namespace

Result<ParsedStore> parse_certdata(std::string_view text) {
  rs::obs::Span span("formats/certdata");
  CertPool pool;
  auto result = parse_certdata_impl(text, pool);
  detail::note_parse(span, text.size(), result, pool);
  return result;
}

std::string write_certdata(const std::vector<TrustEntry>& entries) {
  std::string out;
  out +=
      "# This file is synthesized by rs::formats::write_certdata.\n"
      "# Grammar-compatible with NSS certdata.txt.\n"
      "BEGINDATA\n\n";
  for (const auto& e : entries) {
    const auto& cert = *e.certificate;
    const std::string label = sanitize_label(
        cert.subject().common_name().value_or(
            cert.subject().organization().value_or("Unnamed Root")));

    out += "# Certificate \"" + label + "\"\n";
    out += "CKA_CLASS CK_OBJECT_CLASS CKO_CERTIFICATE\n";
    out += "CKA_TOKEN CK_BBOOL CK_TRUE\n";
    out += "CKA_PRIVATE CK_BBOOL CK_FALSE\n";
    out += "CKA_LABEL UTF8 \"" + label + "\"\n";
    out += "CKA_CERTIFICATE_TYPE CK_CERTIFICATE_TYPE CKC_X_509\n";
    out += "CKA_VALUE MULTILINE_OCTAL\n";
    out += octal_encode(cert.der());

    out += "\n# Trust for \"" + label + "\"\n";
    out += "CKA_CLASS CK_OBJECT_CLASS CKO_NSS_TRUST\n";
    out += "CKA_TOKEN CK_BBOOL CK_TRUE\n";
    out += "CKA_LABEL UTF8 \"" + label + "\"\n";
    out += "CKA_CERT_SHA1_HASH MULTILINE_OCTAL\n";
    out += octal_encode(cert.sha1());
    out += "CKA_CERT_MD5_HASH MULTILINE_OCTAL\n";
    out += octal_encode(cert.md5());

    struct PurposeAttr {
      const char* name;
      TrustPurpose purpose;
    };
    static constexpr PurposeAttr kPurposeAttrs[] = {
        {"CKA_TRUST_SERVER_AUTH", TrustPurpose::kServerAuth},
        {"CKA_TRUST_EMAIL_PROTECTION", TrustPurpose::kEmailProtection},
        {"CKA_TRUST_CODE_SIGNING", TrustPurpose::kCodeSigning},
    };
    for (const auto& pa : kPurposeAttrs) {
      out += std::string(pa.name) + " CK_TRUST " +
             trust_level_token(e.trust_for(pa.purpose).level) + "\n";
    }
    const auto& server = e.trust_for(TrustPurpose::kServerAuth);
    if (server.distrust_after) {
      const std::string encoded = encode_distrust_after(*server.distrust_after);
      out += "CKA_NSS_SERVER_DISTRUST_AFTER MULTILINE_OCTAL\n";
      out += octal_encode(
          {reinterpret_cast<const std::uint8_t*>(encoded.data()),
           encoded.size()});
    } else {
      out += "CKA_NSS_SERVER_DISTRUST_AFTER CK_BBOOL CK_FALSE\n";
    }
    out += "CKA_TRUST_STEP_UP_APPROVED CK_BBOOL CK_FALSE\n\n";
  }
  return out;
}

}  // namespace rs::formats
