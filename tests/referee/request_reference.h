// The reference request parser and canonicalizer: rs::query's
// parse_request, canonical_request and append_json_string as the library
// ran them before values were copied in runs and keys were written in
// place (src/query/request.cpp).  Every string value is pushed into a
// std::string one byte at a time, with the cap checked after each byte;
// Base64 values go through the reference codec (base64_reference.h); the
// canonical form formats each date with snprintf, builds each fingerprint
// as a temporary hex string and each certificate as a temporary Base64
// string, and escape-scans all of them one byte at a time.  The library
// must agree with it on every line: the same accept or reject, the same
// error text, the same Request and the same canonical bytes
// (fuzz/fuzz_query_request.cpp, tests/query/request_referee_test.cpp).
// Header-only, included from the repo root.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/query/request.h"
#include "src/util/date.h"
#include "src/util/result.h"
#include "tests/referee/base64_reference.h"

namespace rs::referee::request {

using rs::query::Op;
using rs::query::Request;
using rs::query::Scope;
using rs::util::Result;

inline constexpr char kHexDigits[] = "0123456789abcdef";

inline bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

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

inline Result<std::string> parse_string(Cursor& in, const char* what,
                                        std::size_t cap) {
  if (!in.consume('"')) {
    return Result<std::string>::err(std::string("expected '\"' to open ") +
                                    what);
  }
  std::string out;
  while (true) {
    if (in.done()) {
      return Result<std::string>::err(std::string("unterminated ") + what);
    }
    const char c = in.text[in.pos++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Result<std::string>::err(
          std::string("raw control byte in ") + what);
    }
    if (c == '\\') {
      if (in.done()) {
        return Result<std::string>::err(std::string("unterminated ") + what);
      }
      const char esc = in.text[in.pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        default:
          return Result<std::string>::err(
              std::string("unsupported escape in ") + what);
      }
    } else {
      out.push_back(c);
    }
    if (out.size() > cap) {
      return Result<std::string>::err(std::string(what) + " exceeds " +
                                      std::to_string(cap) + " bytes");
    }
  }
  return out;
}

struct RawField {
  std::string key;
  std::string value;
  std::vector<std::string> items;  // "pool" only
  bool is_array = false;
};

inline Result<std::vector<RawField>> parse_object(std::string_view text) {
  using R = Result<std::vector<RawField>>;
  if (text.size() > rs::query::kMaxVerifyRequestBytes) {
    return R::err("request exceeds " +
                  std::to_string(rs::query::kMaxVerifyRequestBytes) +
                  " bytes");
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
  while (true) {
    in.skip_ws();
    auto key = parse_string(in, "field name", rs::query::kMaxKeyBytes);
    if (!key.ok()) return key.propagate<std::vector<RawField>>();
    in.skip_ws();
    if (!in.consume(':')) return R::err("expected ':' after field name");
    in.skip_ws();
    if (in.done()) return R::err("missing value");
    RawField field;
    field.key = std::move(key).take();
    if (in.peek() == '[' && field.key == "pool") {
      in.consume('[');
      field.is_array = true;
      in.skip_ws();
      if (!in.consume(']')) {
        while (true) {
          in.skip_ws();
          auto item =
              parse_string(in, "pool entry", rs::query::kMaxCertB64Bytes);
          if (!item.ok()) return item.propagate<std::vector<RawField>>();
          field.items.push_back(std::move(item).take());
          if (field.items.size() > rs::query::kMaxPoolCerts) {
            return R::err("pool carries more than " +
                          std::to_string(rs::query::kMaxPoolCerts) +
                          " certificates");
          }
          in.skip_ws();
          if (in.consume(',')) continue;
          if (in.consume(']')) break;
          return R::err("expected ',' or ']' after pool entry");
        }
      }
    } else if (in.peek() == '"') {
      const std::size_t cap = field.key == "leaf" ? rs::query::kMaxCertB64Bytes
                                                  : rs::query::kMaxValueBytes;
      auto value = parse_string(in, "field value", cap);
      if (!value.ok()) return value.propagate<std::vector<RawField>>();
      field.value = std::move(value).take();
    } else {
      return R::err("field '" + field.key + "' must be a JSON string");
    }
    for (const auto& f : fields) {
      if (f.key == field.key) {
        return R::err("duplicate field '" + field.key + "'");
      }
    }
    fields.push_back(std::move(field));
    if (fields.size() > rs::query::kMaxFields) {
      return R::err("more than " + std::to_string(rs::query::kMaxFields) +
                    " fields");
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

inline Result<std::vector<std::uint8_t>> parse_cert_b64(
    const std::string& what, const std::string& value) {
  using R = Result<std::vector<std::uint8_t>>;
  auto der = rs::referee::base64::decode(value, false);
  if (!der) return R::err(what + " is not valid Base64");
  if (der->empty()) return R::err(what + " decodes to zero bytes");
  return *std::move(der);
}

inline Result<rs::crypto::Sha256Digest> parse_fp(const std::string& value) {
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

inline Result<rs::util::Date> parse_date_field(const std::string& key,
                                               const std::string& value) {
  auto date = rs::util::Date::parse(value);
  if (!date) {
    return Result<rs::util::Date>::err("field '" + key +
                                       "' is not a YYYY-MM-DD date");
  }
  return *date;
}

struct OpSpec {
  Op op;
  const char* name;
  bool fp, provider, date, date_a, date_b, user_agent, os, scope;
  bool leaf = false, pool = false;
};

inline constexpr std::array<OpSpec, 13> kOpSpecs = {{
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

inline const OpSpec* spec_for(std::string_view name) noexcept {
  for (const auto& s : kOpSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

inline const OpSpec& spec_of(Op op) noexcept {
  for (const auto& s : kOpSpecs) {
    if (s.op == op) return s;
  }
  return kOpSpecs[0];
}

inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out.push_back(kHexDigits[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHexDigits[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

inline Result<Request> parse_request(std::string_view text) {
  using R = Result<Request>;
  auto fields = parse_object(text);
  if (!fields.ok()) return fields.propagate<Request>();

  const OpSpec* spec = nullptr;
  for (const auto& f : fields.value()) {
    if (f.key != "op") continue;
    spec = spec_for(f.value);
    if (spec == nullptr) return R::err("unknown op '" + f.value + "'");
  }
  if (spec == nullptr) return R::err("missing required field 'op'");
  if (text.size() > rs::query::max_request_bytes(spec->op)) {
    return R::err("request exceeds " +
                  std::to_string(rs::query::max_request_bytes(spec->op)) +
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
      return R::err("unknown field '" + f.key + "' for op '" +
                    std::string(spec->name) + "'");
    }
    if (f.is_array != (f.key == "pool")) {
      return R::err("field 'pool' must be a JSON array of strings");
    }
    if (f.key == "fp") {
      auto fp = parse_fp(f.value);
      if (!fp.ok()) return fp.propagate<Request>();
      request.fp = fp.value();
    } else if (f.key == "provider") {
      if (f.value.empty()) return R::err("field 'provider' is empty");
      request.provider = f.value;
    } else if (f.key == "date" || f.key == "date_a" || f.key == "date_b") {
      auto date = parse_date_field(f.key, f.value);
      if (!date.ok()) return date.propagate<Request>();
      if (f.key == "date") request.date = date.value();
      else if (f.key == "date_a") request.date_a = date.value();
      else request.date_b = date.value();
    } else if (f.key == "user_agent") {
      if (f.value.empty()) return R::err("field 'user_agent' is empty");
      request.user_agent = f.value;
    } else if (f.key == "os") {
      if (f.value.empty()) return R::err("field 'os' is empty");
      request.os = f.value;
    } else if (f.key == "leaf") {
      auto der = parse_cert_b64("field 'leaf'", f.value);
      if (!der.ok()) return der.propagate<Request>();
      request.leaf = std::move(der).take();
    } else if (f.key == "pool") {
      has_pool = true;
      for (std::size_t i = 0; i < f.items.size(); ++i) {
        auto der = parse_cert_b64("pool entry " + std::to_string(i),
                                  f.items[i]);
        if (!der.ok()) return der.propagate<Request>();
        request.pool.push_back(std::move(der).take());
      }
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

inline std::string date_text(const rs::util::Date& d) {
  const rs::util::CivilDate c = d.civil();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

inline std::string canonical_request(const Request& request) {
  const OpSpec& spec = spec_of(request.op);
  std::string out = "{\"op\":";
  append_json_string(out, spec.name);
  const auto field = [&out](const char* key, std::string_view value) {
    out.push_back(',');
    out.push_back('"');
    out += key;
    out += "\":";
    append_json_string(out, value);
  };
  if (spec.date && request.date) field("date", date_text(*request.date));
  if (spec.date_a && request.date_a) {
    field("date_a", date_text(*request.date_a));
  }
  if (spec.date_b && request.date_b) {
    field("date_b", date_text(*request.date_b));
  }
  if (spec.fp && request.fp) {
    std::string hex;
    hex.reserve(64);
    for (const std::uint8_t b : *request.fp) {
      hex.push_back(kHexDigits[(b >> 4) & 0xF]);
      hex.push_back(kHexDigits[b & 0xF]);
    }
    field("fp", hex);
  }
  if (spec.leaf && request.leaf) {
    field("leaf", rs::referee::base64::encode(*request.leaf));
  }
  if (spec.os && request.os) field("os", *request.os);
  if (spec.pool) {
    out += ",\"pool\":[";
    for (std::size_t i = 0; i < request.pool.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_json_string(out, rs::referee::base64::encode(request.pool[i]));
    }
    out.push_back(']');
  }
  if (spec.provider && request.provider) field("provider", *request.provider);
  if (spec.scope) field("scope", rs::store::to_string(request.scope));
  if (spec.user_agent && request.user_agent) {
    field("user_agent", *request.user_agent);
  }
  out.push_back('}');
  return out;
}

/// True when two parses agree: both fail with the same text, or both
/// succeed with equal requests.
inline bool same_parse(const Result<Request>& a, const Result<Request>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.error() == b.error();
  const Request& x = a.value();
  const Request& y = b.value();
  return x.op == y.op && x.fp == y.fp && x.provider == y.provider &&
         x.date == y.date && x.date_a == y.date_a && x.date_b == y.date_b &&
         x.user_agent == y.user_agent && x.os == y.os && x.scope == y.scope &&
         x.leaf == y.leaf && x.pool == y.pool;
}

}  // namespace rs::referee::request
