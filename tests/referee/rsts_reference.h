// The reference RSTS parser: parse_rsts as the library ran it before the
// `cert` lookup moved ahead of tokenizing and the parse stopped allocating
// per line (src/formats/portable.cpp).  Every line of a root block is
// tokenized into a vector of its own, a `cert` line is looked up in the
// pool by its second token, the label is copied into a string, and the pin
// is lowercased into a string and compared with the hex encoding of the
// certificate's SHA-256.  The library must agree with it on every
// document: the same entries (DER, per-purpose trust, order), the same
// warnings in the same order, the same errors, and the same CertPool
// parses and hits (tests/formats/rsts_referee_test.cpp, fuzz/fuzz_rsts.cpp).
// It does not trace or count: parse_rsts's span and counters are not part
// of what is compared.  Header-only, included from the repo root.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/encoding/base64.h"
#include "src/formats/cert_pool.h"
#include "src/formats/certdata.h"
#include "src/formats/portable.h"
#include "src/store/trust.h"
#include "src/util/date.h"
#include "src/util/hex.h"
#include "src/util/result.h"
#include "src/util/strings.h"

namespace rs::referee::rsts {

using rs::formats::CertPool;
using rs::formats::ParsedStore;
using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Result;

inline std::optional<TrustLevel> parse_level(std::string_view token) {
  if (token == "trusted-delegator") return TrustLevel::kTrustedDelegator;
  if (token == "must-verify") return TrustLevel::kMustVerify;
  if (token == "distrusted") return TrustLevel::kDistrusted;
  return std::nullopt;
}

inline std::optional<TrustPurpose> parse_purpose(std::string_view token) {
  if (token == "server-auth") return TrustPurpose::kServerAuth;
  if (token == "email-protection") return TrustPurpose::kEmailProtection;
  if (token == "code-signing") return TrustPurpose::kCodeSigning;
  return std::nullopt;
}

inline Result<ParsedStore> parse(std::string_view text, CertPool& pool) {
  const auto lines = rs::util::split_lines(text);
  std::size_t i = 0;

  // Header.
  while (i < lines.size() && rs::util::trim(lines[i]).empty()) ++i;
  if (i >= lines.size()) {
    return Result<ParsedStore>::err("rsts: empty document");
  }
  {
    const auto header = rs::util::split_ws(rs::util::trim(lines[i]));
    if (header.size() != 2 || header[0] != "RSTS") {
      return Result<ParsedStore>::err("rsts: missing 'RSTS <version>' header");
    }
    int version = 0;
    const auto* first = header[1].data();
    const auto* last = header[1].data() + header[1].size();
    auto [ptr, ec] = std::from_chars(first, last, version);
    if (ec != std::errc{} || ptr != last) {
      return Result<ParsedStore>::err("rsts: malformed version");
    }
    if (version != rs::formats::kRstsVersion) {
      return Result<ParsedStore>::err("rsts: unsupported version " +
                                      std::to_string(version));
    }
    ++i;
  }

  ParsedStore out;
  while (i < lines.size()) {
    const std::string_view line = rs::util::trim(lines[i]);
    if (line.empty() || line.front() == '#') {
      ++i;
      continue;
    }
    if (line != "root") {
      return Result<ParsedStore>::err("rsts: expected 'root' at line " +
                                      std::to_string(i + 1));
    }
    ++i;

    // One root block.  The last `cert` line wins: either a pool hit
    // (`cert`) or freshly decoded DER, parsed once the block closes.
    std::string label;
    std::string sha256_hex;
    std::string_view cert_text;
    CertPool::CertPtr cert;
    std::vector<std::uint8_t> der;
    bool der_ok = false;
    TrustEntry entry;
    bool closed = false;
    bool entry_bad = false;

    for (; i < lines.size(); ++i) {
      const std::string_view body = rs::util::trim(lines[i]);
      if (body.empty() || body.front() == '#') continue;
      if (body == "end") {
        closed = true;
        ++i;
        break;
      }
      const auto tokens = rs::util::split_ws(body);
      if (tokens.empty()) continue;
      const std::string_view key = tokens[0];
      if (key == "label") {
        const std::size_t pos = body.find("label");
        label = std::string(rs::util::trim(body.substr(pos + 5)));
      } else if (key == "sha256" && tokens.size() == 2) {
        sha256_hex = rs::util::to_lower(tokens[1]);
      } else if (key == "cert" && tokens.size() == 2) {
        cert_text = tokens[1];
        cert = pool.find_base64(cert_text);
        if (cert) {
          der_ok = true;
          continue;
        }
        auto decoded = rs::encoding::base64_decode(cert_text);
        if (!decoded) {
          out.warnings.push_back("rsts: bad base64 in cert at line " +
                                 std::to_string(i + 1));
          entry_bad = true;
        } else {
          der = std::move(*decoded);
          der_ok = true;
        }
      } else if (key == "trust" && tokens.size() >= 3) {
        const auto purpose = parse_purpose(tokens[1]);
        const auto level = parse_level(tokens[2]);
        if (!purpose || !level) {
          out.warnings.push_back("rsts: unknown trust tokens at line " +
                                 std::to_string(i + 1));
          continue;
        }
        entry.trust_for(*purpose).level = *level;
        for (std::size_t t = 3; t < tokens.size(); ++t) {
          if (rs::util::starts_with(tokens[t], "distrust-after=")) {
            const auto date =
                rs::util::Date::parse(tokens[t].substr(15));
            if (!date) {
              out.warnings.push_back("rsts: bad distrust-after at line " +
                                     std::to_string(i + 1));
            } else {
              entry.trust_for(*purpose).distrust_after = date;
            }
          } else {
            out.warnings.push_back("rsts: unknown trust attribute '" +
                                   std::string(tokens[t]) + "' at line " +
                                   std::to_string(i + 1));
          }
        }
      } else {
        // Forward compatibility: unknown keys warn and are skipped.
        out.warnings.push_back("rsts: unknown key '" + std::string(key) +
                               "' at line " + std::to_string(i + 1));
      }
    }
    if (!closed) {
      return Result<ParsedStore>::err("rsts: unterminated root block");
    }
    if (entry_bad) continue;
    if (!der_ok) {
      out.warnings.push_back("rsts: root block without cert skipped" +
                             (label.empty() ? "" : " (" + label + ")"));
      continue;
    }
    // The pin is mandatory: an RSTS consumer must never accept a
    // certificate whose integrity line is absent or wrong.
    if (sha256_hex.empty()) {
      out.warnings.push_back("rsts: root block without sha256 pin skipped" +
                             (label.empty() ? "" : " (" + label + ")"));
      continue;
    }
    if (!cert) {
      auto decoded = pool.decode(der);
      if (!decoded) {
        out.warnings.push_back("rsts: undecodable certificate skipped: " +
                               decoded.error());
        continue;
      }
      cert = std::move(decoded).take();
      pool.remember_base64(cert_text, cert);
    }
    if (rs::util::hex_encode(cert->sha256()) != sha256_hex) {
      out.warnings.push_back("rsts: sha256 pin mismatch, entry rejected" +
                             (label.empty() ? "" : " (" + label + ")"));
      continue;
    }
    entry.certificate = std::move(cert);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace rs::referee::rsts
