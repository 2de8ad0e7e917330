#include "src/query/request.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/encoding/base64.h"
#include "src/util/hex.h"

namespace rs::query {
namespace {

using rs::util::Result;

constexpr char kHexDigits[] = "0123456789abcdef";

bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Cursor over the request bytes.  All reads are bounds-checked; the
/// parser never indexes past `size`.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const noexcept { return pos >= text.size(); }
  char peek() const noexcept { return text[pos]; }
  void skip_ws() noexcept {
    while (!done() && is_ws(text[pos])) ++pos;
  }
  bool consume(char c) noexcept {
    if (done() || text[pos] != c) return false;
    ++pos;
    return true;
  }
};

/// True for a byte a JSON string carries as itself: not '"', not '\\',
/// not a control byte.
bool is_plain(char c) noexcept {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

/// Length of the longest prefix of the `n` bytes at `p` that are all
/// plain.  Tests eight bytes at a time: a word needs a closer look when one
/// of its bytes is '"', '\\' or below 0x20 (the zero-byte and less-than
/// tests of "Bit Twiddling Hacks", exact about whether such a byte
/// exists), and the byte loop finds which one.
std::size_t plain_prefix(const char* p, std::size_t n) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t backslash = w ^ (kOnes * '\\');
    const std::uint64_t stop = ((quote - kOnes) & ~quote) |
                               ((backslash - kOnes) & ~backslash) |
                               ((w - kOnes * 0x20) & ~w);
    if ((stop & kHigh) != 0) break;
  }
  while (i < n && is_plain(p[i])) ++i;
  return i;
}

/// Parses a JSON string literal.  Accepts the simple escapes
/// (\" \\ \/ \b \f \n \r \t); rejects \uXXXX (the request vocabulary is
/// ASCII) and raw control bytes.  `what` names the thing being parsed for
/// error messages; `cap` bounds the decoded length.
///
/// A value with no escape is returned as a view of the request text.  One
/// with escapes is decoded into `arena`, reserved to the text's size on
/// first use: decoding never lengthens a string, so the arena never
/// reallocates and the views into it stay valid while it lives.  The
/// longest run of plain bytes that still fits under `cap` is taken in one
/// step; the byte after it (a quote, an escape, a control byte, the end of
/// the text, or a plain byte past the cap) goes through the per-byte
/// checks, so the first error and its text are the same as a
/// byte-at-a-time parse.
Result<std::string_view> parse_string(Cursor& in, const char* what,
                                      std::size_t cap, std::string& arena) {
  using R = Result<std::string_view>;
  if (!in.consume('"')) {
    return R::err(std::string("expected '\"' to open ") + what);
  }
  const std::size_t start = in.pos;
  const auto run = [&in](std::size_t room) {
    return plain_prefix(in.text.data() + in.pos,
                        std::min(room, in.text.size() - in.pos));
  };
  in.pos += run(cap);
  if (!in.done() && in.peek() == '"') {
    return in.text.substr(start, in.pos++ - start);
  }
  if (arena.capacity() < in.text.size()) arena.reserve(in.text.size());
  const std::size_t begin = arena.size();
  arena.append(in.text.data() + start, in.pos - start);
  while (true) {
    if (in.done()) return R::err(std::string("unterminated ") + what);
    const char c = in.text[in.pos++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) {
      return R::err(std::string("raw control byte in ") + what);
    }
    if (c == '\\') {
      if (in.done()) return R::err(std::string("unterminated ") + what);
      const char esc = in.text[in.pos++];
      switch (esc) {
        case '"': arena.push_back('"'); break;
        case '\\': arena.push_back('\\'); break;
        case '/': arena.push_back('/'); break;
        case 'b': arena.push_back('\b'); break;
        case 'f': arena.push_back('\f'); break;
        case 'n': arena.push_back('\n'); break;
        case 'r': arena.push_back('\r'); break;
        case 't': arena.push_back('\t'); break;
        default:
          return R::err(std::string("unsupported escape in ") + what);
      }
    } else {
      arena.push_back(c);
    }
    const std::size_t length = arena.size() - begin;
    if (length > cap) {
      return R::err(std::string(what) + " exceeds " + std::to_string(cap) +
                    " bytes");
    }
    const std::size_t n = run(cap - length);
    arena.append(in.text.data() + in.pos, n);
    in.pos += n;
  }
  return std::string_view(arena).substr(begin);
}

/// One raw key/value pair before per-op validation, as views of the
/// request text or of parse_request's arena.  The only non-string value
/// in the grammar is the "pool" array of strings; everything else stays
/// flat.
struct RawField {
  std::string_view key;
  std::string_view value;
  std::vector<std::string_view> items;  // "pool" only
  bool is_array = false;
};

Result<std::vector<RawField>> parse_object(std::string_view text,
                                           std::string& arena) {
  using R = Result<std::vector<RawField>>;
  if (text.size() > kMaxVerifyRequestBytes) {
    // The widest per-op budget; parse_request re-checks the tighter cap
    // once the op is known.
    return R::err("request exceeds " +
                  std::to_string(kMaxVerifyRequestBytes) + " bytes");
  }
  Cursor in{text};
  in.skip_ws();
  if (!in.consume('{')) return R::err("expected '{'");
  std::vector<RawField> fields;
  in.skip_ws();
  if (in.consume('}')) {
    in.skip_ws();
    if (!in.done()) return R::err("trailing bytes after request object");
    return fields;
  }
  fields.reserve(kMaxFields + 1);  // the most it holds before the cap check
  while (true) {
    in.skip_ws();
    auto key = parse_string(in, "field name", kMaxKeyBytes, arena);
    if (!key.ok()) return key.propagate<std::vector<RawField>>();
    in.skip_ws();
    if (!in.consume(':')) return R::err("expected ':' after field name");
    in.skip_ws();
    if (in.done()) return R::err("missing value");
    RawField field;
    field.key = key.value();
    if (in.peek() == '[' && field.key == "pool") {
      // The certificate pool: a bounded array of Base64 strings.  No other
      // key admits an array, keeping the attack surface flat.
      in.consume('[');
      field.is_array = true;
      in.skip_ws();
      if (!in.consume(']')) {
        while (true) {
          in.skip_ws();
          auto item = parse_string(in, "pool entry", kMaxCertB64Bytes, arena);
          if (!item.ok()) return item.propagate<std::vector<RawField>>();
          field.items.push_back(item.value());
          if (field.items.size() > kMaxPoolCerts) {
            return R::err("pool carries more than " +
                          std::to_string(kMaxPoolCerts) + " certificates");
          }
          in.skip_ws();
          if (in.consume(',')) continue;
          if (in.consume(']')) break;
          return R::err("expected ',' or ']' after pool entry");
        }
      }
    } else if (in.peek() == '"') {
      // "leaf" carries a Base64 certificate and gets the wide value cap;
      // every other value keeps the tight one.
      const std::size_t cap =
          field.key == "leaf" ? kMaxCertB64Bytes : kMaxValueBytes;
      auto value = parse_string(in, "field value", cap, arena);
      if (!value.ok()) return value.propagate<std::vector<RawField>>();
      field.value = value.value();
    } else {
      // The remaining request vocabulary is strings; numbers, booleans, and
      // nested containers are rejected outright to keep the attack
      // surface flat.
      return R::err("field '" + std::string(field.key) +
                    "' must be a JSON string");
    }
    for (const auto& f : fields) {
      if (f.key == field.key) {
        return R::err("duplicate field '" + std::string(field.key) + "'");
      }
    }
    fields.push_back(std::move(field));
    if (fields.size() > kMaxFields) {
      return R::err("more than " + std::to_string(kMaxFields) + " fields");
    }
    in.skip_ws();
    if (in.consume(',')) continue;
    if (in.consume('}')) break;
    return R::err("expected ',' or '}' after field");
  }
  in.skip_ws();
  if (!in.done()) return R::err("trailing bytes after request object");
  return fields;
}

/// Decodes one Base64 certificate value into `der`; on failure returns the
/// end of the error text (the caller names the field), else nullptr.
const char* decode_cert(std::string_view value,
                        std::vector<std::uint8_t>& der) {
  auto decoded = rs::encoding::base64_decode(value);
  if (!decoded) return " is not valid Base64";
  if (decoded->empty()) return " decodes to zero bytes";
  der = *std::move(decoded);
  return nullptr;
}

Result<rs::crypto::Sha256Digest> parse_fp(std::string_view value) {
  using R = Result<rs::crypto::Sha256Digest>;
  if (value.size() != 64) {
    return R::err("fp must be 64 hex digits (SHA-256)");
  }
  rs::crypto::Sha256Digest out{};
  for (std::size_t i = 0; i < 64; ++i) {
    const char c = value[i];
    unsigned nibble = 0;
    if (c >= '0' && c <= '9') nibble = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') nibble = static_cast<unsigned>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') nibble = static_cast<unsigned>(c - 'A') + 10;
    else return R::err("fp must be 64 hex digits (SHA-256)");
    out[i / 2] = static_cast<std::uint8_t>(
        (out[i / 2] << 4) | static_cast<std::uint8_t>(nibble));
  }
  return out;
}

Result<rs::util::Date> parse_date_field(std::string_view key,
                                        std::string_view value) {
  auto date = rs::util::Date::parse(value);
  if (!date) {
    return Result<rs::util::Date>::err("field '" + std::string(key) +
                                       "' is not a YYYY-MM-DD date");
  }
  return *date;
}

struct OpSpec {
  Op op;
  const char* name;
  // Field admissibility, beyond "op" itself.
  bool fp, provider, date, date_a, date_b, user_agent, os, scope;
  bool leaf = false, pool = false;
};

// `os` is the only optional-when-admissible field (agent names are only
// ambiguous across OSes); everything else admissible is required (an
// empty `pool` array is legal — the leaf may chain straight to an
// anchor — but the field itself must be present).
constexpr std::array<OpSpec, 13> kOpSpecs = {{
    {Op::kIsTrusted, "is_trusted",
     true, true, true, false, false, false, false, true},
    {Op::kProvidersTrusting, "providers_trusting",
     true, false, true, false, false, false, false, true},
    {Op::kStoreAt, "store_at",
     false, true, true, false, false, false, false, true},
    {Op::kDiff, "diff",
     false, true, false, true, true, false, false, true},
    {Op::kAgentStore, "agent_store",
     false, false, true, false, false, true, true, true},
    {Op::kLineage, "lineage",
     true, false, false, false, false, false, false, true},
    {Op::kStats, "stats",
     false, false, false, false, false, false, false, false},
    {Op::kServerStats, "server_stats",
     false, false, false, false, false, false, false, false},
    {Op::kReloadIndex, "reload_index",
     false, false, false, false, false, false, false, false},
    {Op::kVerifyChain, "verify_chain",
     false, true, true, false, false, false, false, true, true, true},
    {Op::kFirstRejectedAt, "first_rejected_at",
     false, true, false, false, false, false, false, true, true, true},
    {Op::kAgreementAt, "agreement_at",
     false, false, true, false, false, false, false, true},
    {Op::kCtCoverage, "ct_coverage",
     false, true, true, false, false, false, false, true},
}};

const OpSpec* spec_for(std::string_view name) noexcept {
  for (const auto& s : kOpSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

const OpSpec& spec_of(Op op) noexcept {
  for (const auto& s : kOpSpecs) {
    if (s.op == op) return s;
  }
  return kOpSpecs[0];  // unreachable: every Op has a spec
}

}  // namespace

const char* to_string(Op op) noexcept { return spec_of(op).name; }

std::size_t max_request_bytes(Op op) noexcept {
  return (op == Op::kVerifyChain || op == Op::kFirstRejectedAt)
             ? kMaxVerifyRequestBytes
             : kMaxRequestBytes;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t i = 0;
  while (true) {
    // Copy the clean run at once; stop at the next byte to escape.
    const std::size_t j = i + plain_prefix(s.data() + i, s.size() - i);
    out.append(s.data() + i, j - i);
    if (j == s.size()) break;
    const char c = s[j];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHexDigits[(static_cast<unsigned char>(c) >> 4) & 0xF]);
        out.push_back(kHexDigits[static_cast<unsigned char>(c) & 0xF]);
    }
    i = j + 1;
  }
  out.push_back('"');
}

rs::util::Result<Request> parse_request(std::string_view text) {
  using R = Result<Request>;
  std::string arena;  // decoded values with escapes; see parse_string
  auto fields = parse_object(text, arena);
  if (!fields.ok()) return fields.propagate<Request>();

  const OpSpec* spec = nullptr;
  for (const auto& f : fields.value()) {
    if (f.key != "op") continue;
    spec = spec_for(f.value);
    if (spec == nullptr) {
      return R::err("unknown op '" + std::string(f.value) + "'");
    }
  }
  if (spec == nullptr) return R::err("missing required field 'op'");
  if (text.size() > max_request_bytes(spec->op)) {
    return R::err("request exceeds " +
                  std::to_string(max_request_bytes(spec->op)) +
                  " bytes for op '" + std::string(spec->name) + "'");
  }

  Request request;
  request.op = spec->op;
  bool has_pool = false;
  for (const auto& f : fields.value()) {
    if (f.key == "op") continue;
    const bool admissible =
        (f.key == "fp" && spec->fp) || (f.key == "provider" && spec->provider) ||
        (f.key == "date" && spec->date) ||
        (f.key == "date_a" && spec->date_a) ||
        (f.key == "date_b" && spec->date_b) ||
        (f.key == "user_agent" && spec->user_agent) ||
        (f.key == "os" && spec->os) || (f.key == "scope" && spec->scope) ||
        (f.key == "leaf" && spec->leaf) || (f.key == "pool" && spec->pool);
    if (!admissible) {
      return R::err("unknown field '" + std::string(f.key) + "' for op '" +
                    std::string(spec->name) + "'");
    }
    if (f.is_array != (f.key == "pool")) {
      // parse_object only builds arrays for "pool", so the one remaining
      // mismatch is a string-valued "pool".
      return R::err("field 'pool' must be a JSON array of strings");
    }
    if (f.key == "fp") {
      auto fp = parse_fp(f.value);
      if (!fp.ok()) return fp.propagate<Request>();
      request.fp = fp.value();
    } else if (f.key == "provider") {
      if (f.value.empty()) return R::err("field 'provider' is empty");
      request.provider.emplace(f.value);
    } else if (f.key == "date" || f.key == "date_a" || f.key == "date_b") {
      auto date = parse_date_field(f.key, f.value);
      if (!date.ok()) return date.propagate<Request>();
      if (f.key == "date") request.date = date.value();
      else if (f.key == "date_a") request.date_a = date.value();
      else request.date_b = date.value();
    } else if (f.key == "user_agent") {
      if (f.value.empty()) return R::err("field 'user_agent' is empty");
      request.user_agent.emplace(f.value);
    } else if (f.key == "os") {
      if (f.value.empty()) return R::err("field 'os' is empty");
      request.os.emplace(f.value);
    } else if (f.key == "leaf") {
      if (const char* why = decode_cert(f.value, request.leaf.emplace())) {
        return R::err(std::string("field 'leaf'") + why);
      }
    } else if (f.key == "pool") {
      has_pool = true;
      request.pool.resize(f.items.size());
      for (std::size_t i = 0; i < f.items.size(); ++i) {
        if (const char* why = decode_cert(f.items[i], request.pool[i])) {
          return R::err("pool entry " + std::to_string(i) + why);
        }
      }
      // Sort by DER bytes and deduplicate so pool order never leaks into
      // the canonical form (or the serve-cache key).
      std::sort(request.pool.begin(), request.pool.end());
      request.pool.erase(
          std::unique(request.pool.begin(), request.pool.end()),
          request.pool.end());
    } else {  // scope
      if (f.value == "tls") request.scope = Scope::kTls;
      else if (f.value == "email") request.scope = Scope::kEmail;
      else if (f.value == "code") request.scope = Scope::kCode;
      else if (f.value == "present") request.scope = Scope::kPresent;
      else {
        return R::err("field 'scope' must be tls, email, code, or present");
      }
    }
  }

  // Required-field checks (everything admissible except `os` and `scope`).
  const auto require = [&](bool has, const char* name) -> const char* {
    return has ? nullptr : name;
  };
  const char* missing = nullptr;
  if (spec->fp && !missing) missing = require(request.fp.has_value(), "fp");
  if (spec->provider && !missing) {
    missing = require(request.provider.has_value(), "provider");
  }
  if (spec->date && !missing) {
    missing = require(request.date.has_value(), "date");
  }
  if (spec->date_a && !missing) {
    missing = require(request.date_a.has_value(), "date_a");
  }
  if (spec->date_b && !missing) {
    missing = require(request.date_b.has_value(), "date_b");
  }
  if (spec->user_agent && !missing) {
    missing = require(request.user_agent.has_value(), "user_agent");
  }
  if (spec->leaf && !missing) {
    missing = require(request.leaf.has_value(), "leaf");
  }
  if (spec->pool && !missing) missing = require(has_pool, "pool");
  if (missing != nullptr) {
    return R::err("op '" + std::string(spec->name) +
                  "' requires field '" + missing + "'");
  }
  return request;
}

namespace {

/// Matches one literal token at the cursor after skipping whitespace.
bool consume_token(Cursor& in, std::string_view token) noexcept {
  in.skip_ws();
  if (in.text.size() - in.pos < token.size()) return false;
  if (in.text.substr(in.pos, token.size()) != token) return false;
  in.pos += token.size();
  return true;
}

}  // namespace

bool looks_like_batch(std::string_view text) noexcept {
  Cursor in{text};
  return consume_token(in, "{") && consume_token(in, "\"op\"") &&
         consume_token(in, ":") && consume_token(in, "\"batch\"");
}

rs::util::Result<std::vector<std::string_view>> parse_batch_request(
    std::string_view text) {
  using R = rs::util::Result<std::vector<std::string_view>>;
  if (text.size() > kMaxBatchBytes) {
    return R::err("batch request exceeds " + std::to_string(kMaxBatchBytes) +
                  " bytes");
  }
  Cursor in{text};
  // Fixed field order keeps the envelope grammar (and looks_like_batch)
  // trivially unambiguous: op first, then requests, nothing else.
  if (!consume_token(in, "{") || !consume_token(in, "\"op\"") ||
      !consume_token(in, ":") || !consume_token(in, "\"batch\"")) {
    return R::err("batch envelope must open with {\"op\":\"batch\"");
  }
  if (!consume_token(in, ",") || !consume_token(in, "\"requests\"") ||
      !consume_token(in, ":") || !consume_token(in, "[")) {
    return R::err("batch envelope requires \"requests\":[...] after the op");
  }
  std::vector<std::string_view> items;
  in.skip_ws();
  if (!in.consume(']')) {
    while (true) {
      in.skip_ws();
      if (in.done() || in.peek() != '{') {
        return R::err("batch item " + std::to_string(items.size()) +
                      " must be a JSON object");
      }
      // Brace-match the item with string/escape awareness.  Sub-requests
      // are flat objects, but a malformed nested one must still frame
      // cleanly here so its rejection stays isolated to its slot.
      const std::size_t begin = in.pos;
      std::size_t depth = 0;
      bool in_string = false;
      bool escaped = false;
      while (!in.done()) {
        const char c = in.text[in.pos++];
        if (in_string) {
          if (escaped) escaped = false;
          else if (c == '\\') escaped = true;
          else if (c == '"') in_string = false;
          continue;
        }
        if (c == '"') in_string = true;
        else if (c == '{') ++depth;
        else if (c == '}' && --depth == 0) break;
      }
      if (depth != 0 || in_string) {
        return R::err("unterminated batch item " +
                      std::to_string(items.size()));
      }
      const std::size_t length = in.pos - begin;
      // The widest per-op budget; parse_request enforces the tighter
      // kMaxRequestBytes cap on non-verify items.
      if (length > kMaxVerifyRequestBytes) {
        return R::err("batch item " + std::to_string(items.size()) +
                      " exceeds " + std::to_string(kMaxVerifyRequestBytes) +
                      " bytes");
      }
      items.push_back(text.substr(begin, length));
      if (items.size() > kMaxBatchRequests) {
        return R::err("batch carries more than " +
                      std::to_string(kMaxBatchRequests) + " requests");
      }
      in.skip_ws();
      if (in.consume(',')) continue;
      if (in.consume(']')) break;
      return R::err("expected ',' or ']' after batch item");
    }
  }
  if (!consume_token(in, "}")) {
    return R::err("expected '}' to close the batch envelope");
  }
  in.skip_ws();
  if (!in.done()) return R::err("trailing bytes after batch envelope");
  return items;
}

void append_canonical_request(std::string& out, const Request& request) {
  const OpSpec& spec = spec_of(request.op);
  // Op names, scopes, dates, lowercase hex and Base64 never need escaping,
  // so they are written straight into `out`; only the free-text values go
  // through append_json_string.
  const auto key = [&out](std::string_view name) {
    out += ",\"";
    out += name;
    out += "\":";
  };
  const auto date = [&](std::string_view name, const rs::util::Date& d) {
    key(name);
    out.push_back('"');
    d.append_to(out);
    out.push_back('"');
  };
  const auto base64 = [&out](const std::vector<std::uint8_t>& der) {
    out.push_back('"');
    rs::encoding::base64_encode_to(out, der);
    out.push_back('"');
  };
  // One allocation for the whole form: fixed text plus the values.
  std::size_t estimate = 192;
  if (request.leaf) estimate += (request.leaf->size() + 2) / 3 * 4 + 3;
  for (const auto& der : request.pool) estimate += (der.size() + 2) / 3 * 4 + 3;
  for (const auto* text : {&request.provider, &request.os, &request.user_agent}) {
    if (*text) estimate += (*text)->size();
  }
  out.reserve(out.size() + estimate);
  out += "{\"op\":\"";
  out += spec.name;
  out.push_back('"');
  if (spec.date && request.date) date("date", *request.date);
  if (spec.date_a && request.date_a) date("date_a", *request.date_a);
  if (spec.date_b && request.date_b) date("date_b", *request.date_b);
  if (spec.fp && request.fp) {
    key("fp");
    out.push_back('"');
    rs::util::append_hex(out, *request.fp);
    out.push_back('"');
  }
  if (spec.leaf && request.leaf) {
    key("leaf");
    base64(*request.leaf);
  }
  if (spec.os && request.os) {
    key("os");
    append_json_string(out, *request.os);
  }
  if (spec.pool) {
    // Always explicit, even when empty; entries are already in sorted-DER
    // order (parse_request canonicalizes), so this is a fixed point.
    key("pool");
    out.push_back('[');
    for (std::size_t i = 0; i < request.pool.size(); ++i) {
      if (i != 0) out.push_back(',');
      base64(request.pool[i]);
    }
    out.push_back(']');
  }
  if (spec.provider && request.provider) {
    key("provider");
    append_json_string(out, *request.provider);
  }
  if (spec.scope) {
    key("scope");
    out.push_back('"');
    out += to_string(request.scope);
    out.push_back('"');
  }
  if (spec.user_agent && request.user_agent) {
    key("user_agent");
    append_json_string(out, *request.user_agent);
  }
  out.push_back('}');
}

std::string canonical_request(const Request& request) {
  std::string out;
  append_canonical_request(out, request);
  return out;
}

}  // namespace rs::query
