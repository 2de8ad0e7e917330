// The seeded request lines behind the wire goldens (WireGolden.* in
// tests/serve/wire_golden_test.cpp, RequestReferee.* in
// tests/query/request_referee_test.cpp).
//
// The lines are drawn from the paper index itself: its providers, its
// fingerprints, its coverage edges and snapshot dates, the Table 1 user
// agents, and the verify golden corpus (tests/golden/verify) for chains.
// They cover every op and scope; ok, not_covered and error answers; batch
// envelopes (nested, empty, over cap, malformed); escapes; reordered
// fields; stray whitespace; uppercase hex; value, key, field, pool and
// request caps at their limit and one past it; and truncated or mutated
// lines.  Every draw comes from one rs::crypto::Prng, so the list is the
// same on every platform.  Lines holding a `-DDD-DD-DD` date are left
// out: a signed year was accepted before Date::parse required digits
// (Date.ParseRejectsSigns pins that change).
// Header-only, included from the repo root.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/crypto/digest.h"
#include "src/crypto/prng.h"
#include "src/query/request.h"
#include "src/query/trust_index.h"
#include "src/synth/user_agents.h"
#include "src/util/date.h"
#include "src/util/hex.h"

namespace rs::wire_golden {

/// Reads a file's lines (no trailing newline kept).
inline std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) lines.push_back(line);
  return lines;
}

/// True when `line` carries a `-DDD-DD-DD` run, the one date spelling
/// whose parse changed when Date::parse stopped taking a sign.
inline bool has_signed_year_date(std::string_view line) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  for (std::size_t i = 0; i + 10 <= line.size(); ++i) {
    const std::string_view w = line.substr(i, 10);
    if (w[0] == '-' && digit(w[1]) && digit(w[2]) && digit(w[3]) &&
        w[4] == '-' && digit(w[5]) && digit(w[6]) && w[7] == '-' &&
        digit(w[8]) && digit(w[9])) {
      return true;
    }
  }
  return false;
}

class LineMaker {
 public:
  LineMaker(const rs::query::TrustIndex& index,
            std::vector<std::string> verify_lines, std::uint64_t seed)
      : rng_(seed), verify_(std::move(verify_lines)) {
    providers_ = index.providers();
    const auto& interner = index.interner();
    const std::size_t step = interner.size() / 48 + 1;
    for (std::size_t id = 0; id < interner.size(); id += step) {
      fps_.push_back(rs::util::hex_encode(
          interner.digest_of(static_cast<std::uint32_t>(id))));
    }
    for (int i = 0; i < 8; ++i) {  // fingerprints in no store
      rs::crypto::Sha256Digest d{};
      rng_.fill(d);
      fps_.push_back(rs::util::hex_encode(d));
    }
    for (const auto& name : providers_) {
      const auto cov = index.coverage(name);
      if (!cov) continue;
      for (const auto d : {cov->first - 1, cov->first, cov->first + 1,
                           cov->last - 1, cov->last, cov->last + 1}) {
        dates_.push_back(d.to_string());
      }
      const auto snaps = index.snapshot_dates(name);
      for (std::size_t k = 0; k < snaps.size(); k += snaps.size() / 4 + 1) {
        dates_.push_back(snaps[k].to_string());
      }
    }
    for (int i = 0; i < 24; ++i) {
      dates_.push_back(
          (rs::util::Date::ymd(1990, 1, 1) +
           static_cast<std::int64_t>(rng_.uniform(40 * 366)))
              .to_string());
    }
    for (const auto& row : rs::synth::user_agent_population()) {
      agents_.emplace_back(row.agent, row.os);
    }
  }

  /// `count` lines: mostly single requests, some batches, then the fixed
  /// cap cases.  Lines with a signed-year date are skipped.
  std::vector<std::string> lines(std::size_t count) {
    std::vector<std::string> out;
    for (auto& line : cap_cases()) {
      if (!has_signed_year_date(line)) out.push_back(std::move(line));
    }
    while (out.size() < count) {
      std::string line = rng_.chance(0.1) ? batch() : single();
      line = mangle(std::move(line));
      if (!has_signed_year_date(line)) out.push_back(std::move(line));
    }
    return out;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(rng_.uniform(v.size()))];
  }

  /// A JSON string literal for `s`, escaped as a client would.
  static std::string quoted(std::string_view s) {
    static const char kHex[] = "0123456789abcdef";
    std::string out = "\"";
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\t') {
        out += "\\t";
      } else if (c == '\n') {
        out += "\\n";
      } else if (u < 0x20) {
        out += "\\u00";
        out.push_back(kHex[u >> 4]);
        out.push_back(kHex[u & 0xF]);
      } else {
        out.push_back(c);
      }
    }
    out.push_back('"');
    return out;
  }

  std::string provider() {
    const double r = rng_.uniform01();
    if (r < 0.9) return pick(providers_);
    if (r < 0.95) return "Nope";
    return "No\"pe\\" + std::string(1, '\t');
  }
  std::string fp() {
    std::string hex = pick(fps_);
    if (rng_.chance(0.15)) {
      for (char& c : hex) {
        if (c >= 'a' && c <= 'f') c = static_cast<char>(c - 'a' + 'A');
      }
    }
    if (rng_.chance(0.03)) hex.pop_back();
    if (rng_.chance(0.02)) hex[rng_.uniform(64) % hex.size()] = 'g';
    return hex;
  }
  std::string date() {
    if (rng_.chance(0.02)) return "2020-02-30";
    if (rng_.chance(0.02)) return "2020/01/01";
    return pick(dates_);
  }
  void scope(Fields& f) {
    static const char* const kScopes[] = {"tls", "email", "code", "present",
                                          "bogus"};
    if (rng_.chance(0.5)) return;  // defaults to tls
    f.emplace_back("scope", quoted(kScopes[rng_.uniform(5)]));
  }

  std::string single() {
    Fields f;
    const std::uint64_t op = rng_.uniform(100);
    const auto add = [&f](const char* key, const std::string& value) {
      f.emplace_back(key, quoted(value));
    };
    if (op < 16) {
      add("op", "is_trusted");
      add("provider", provider());
      add("fp", fp());
      add("date", date());
      scope(f);
    } else if (op < 22) {
      add("op", "providers_trusting");
      add("fp", fp());
      add("date", date());
      scope(f);
    } else if (op < 34) {
      add("op", "store_at");
      add("provider", provider());
      add("date", date());
      scope(f);
    } else if (op < 43) {
      add("op", "diff");
      add("provider", provider());
      add("date_a", date());
      add("date_b", date());
      scope(f);
    } else if (op < 49) {
      const auto& [agent, os] = pick(agents_);
      add("op", "agent_store");
      add("user_agent", rng_.chance(0.05) ? "Lynx" : agent);
      if (rng_.chance(0.6)) add("os", os);
      add("date", date());
      scope(f);
    } else if (op < 55) {
      add("op", "lineage");
      add("fp", fp());
      scope(f);
    } else if (op < 57) {
      add("op", "stats");
    } else if (op < 59) {
      add("op", "server_stats");
    } else if (op < 60) {
      add("op", "reload_index");
    } else if (op < 70) {
      return verify();
    } else if (op < 77) {
      add("op", "agreement_at");
      add("date", date());
      scope(f);
    } else if (op < 81) {
      add("op", "ct_coverage");
      add("provider", provider());
      add("date", date());
      scope(f);
    } else {
      // Every op again, spelled as a client might: fields shuffled,
      // whitespace between tokens, escapes inside values.
      std::string line = single();
      if (line.size() > 2 && line.front() == '{') {
        std::string spaced;
        for (const char c : line) {
          spaced.push_back(c);
          if ((c == ',' || c == ':' || c == '{') && rng_.chance(0.5)) {
            spaced += rng_.chance(0.5) ? " " : "\t\r\n ";
          }
        }
        return spaced;
      }
      return line;
    }
    return render(edit(std::move(f)));
  }

  /// Verify-corpus lines, some with their provider or date replaced.
  std::string verify() {
    std::string line = pick(verify_);
    if (rng_.chance(0.3)) {
      const std::size_t at = line.find("\"provider\":\"");
      if (at != std::string::npos) {
        const std::size_t end = line.find('"', at + 12);
        line.replace(at + 12, end - at - 12, provider());
      }
    }
    if (rng_.chance(0.3)) {
      const std::size_t at = line.find("\"date\":\"");
      if (at != std::string::npos) line.replace(at + 8, 10, date());
    }
    if (rng_.chance(0.2)) {  // the pool in reverse order
      const std::size_t open = line.find("\"pool\":[");
      const std::size_t close = line.find(']', open);
      if (open != std::string::npos && close != std::string::npos) {
        std::vector<std::string> items;
        std::size_t at = open + 8;
        while (at < close) {
          const std::size_t comma = std::min(line.find(',', at), close);
          items.push_back(line.substr(at, comma - at));
          at = comma + 1;
        }
        std::string reversed;
        for (auto it = items.rbegin(); it != items.rend(); ++it) {
          if (!reversed.empty()) reversed.push_back(',');
          reversed += *it;
        }
        line.replace(open + 8, close - open - 8, reversed);
      }
    }
    if (rng_.chance(0.1)) {  // '/' escaped, as some JSON encoders write it
      std::string escaped;
      for (const char c : line) {
        if (c == '/') escaped += "\\/";
        else escaped.push_back(c);
      }
      line = std::move(escaped);
    }
    return line;
  }

  /// Field-level edits: reorder, drop, duplicate, add unknown fields and
  /// re-spell values with escapes.
  Fields edit(Fields f) {
    if (rng_.chance(0.3)) rng_.shuffle(f);
    if (f.size() > 1 && rng_.chance(0.03)) {
      f.erase(f.begin() + static_cast<std::ptrdiff_t>(
                              1 + rng_.uniform(f.size() - 1)));
    }
    if (rng_.chance(0.02)) {
      auto duplicate = pick(f);
      f.push_back(std::move(duplicate));
    }
    if (rng_.chance(0.02)) f.emplace_back("color", "\"blue\"");
    if (rng_.chance(0.02)) f.emplace_back("date", "17");
    if (rng_.chance(0.06)) {
      auto& value = f[rng_.uniform(f.size())].second;
      if (value.size() > 2 && value.front() == '"') {
        static const char* const kEscapes[] = {"\\/", "\\\\", "\\\"", "\\n",
                                               "\\t", "\\u0041", "\\q"};
        const std::size_t at = 1 + rng_.uniform(value.size() - 1);
        value.insert(at, kEscapes[rng_.uniform(7)]);
      }
    }
    return f;
  }

  static std::string render(const Fields& f) {
    std::string out = "{";
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += quoted(f[i].first);
      out.push_back(':');
      out += f[i].second;
    }
    out.push_back('}');
    return out;
  }

  std::string batch() {
    std::string out = "{\"op\":\"batch\",\"requests\":[";
    const std::uint64_t n = rng_.uniform(7);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i > 0) out.push_back(',');
      if (rng_.chance(0.04)) {
        out += "{\"op\":\"batch\",\"requests\":[{\"op\":\"stats\"}]}";
      } else {
        std::string item = single();
        if (item.empty() || item.front() != '{') item = "{\"op\":\"stats\"}";
        out += item;
      }
    }
    out += "]}";
    if (rng_.chance(0.05)) out.insert(out.size() - 1, ",\"extra\":1");
    return out;
  }

  /// Line-level damage: truncation and random byte substitutions.
  std::string mangle(std::string line) {
    if (line.empty()) return line;
    if (rng_.chance(0.04)) line.resize(rng_.uniform(line.size()));
    if (rng_.chance(0.06)) {
      static const char kPalette[] = "\"\\{}[],: \t\x01\x1f\x7f\xff" "0aZ/-";
      const std::uint64_t hits = 1 + rng_.uniform(3);
      for (std::uint64_t i = 0; i < hits && !line.empty(); ++i) {
        const std::size_t at = rng_.uniform(line.size());
        line[at] = rng_.chance(0.5)
                       ? kPalette[rng_.uniform(sizeof kPalette - 1)]
                       : static_cast<char>(rng_.uniform(256));
      }
    }
    return line;
  }

  /// Fixed lines at every cap and one byte past it.
  std::vector<std::string> cap_cases() {
    using rs::query::kMaxCertB64Bytes;
    using rs::query::kMaxFields;
    using rs::query::kMaxKeyBytes;
    using rs::query::kMaxPoolCerts;
    using rs::query::kMaxRequestBytes;
    using rs::query::kMaxValueBytes;
    std::vector<std::string> out;
    const std::string d = "\"date\":\"2015-06-01\"";
    for (const std::size_t n : {kMaxValueBytes, kMaxValueBytes + 1}) {
      out.push_back("{\"op\":\"store_at\",\"provider\":\"" +
                    std::string(n, 'P') + "\"," + d + "}");
      // An escape as the value's last byte, and as its first.
      out.push_back("{\"op\":\"store_at\",\"provider\":\"" +
                    std::string(n - 1, 'P') + "\\n\"," + d + "}");
      out.push_back("{\"op\":\"store_at\",\"provider\":\"\\t" +
                    std::string(n - 1, 'P') + "\"," + d + "}");
      // A control byte just past the run the cap allows.
      out.push_back("{\"op\":\"store_at\",\"provider\":\"" +
                    std::string(n, 'P') + "\x01\"," + d + "}");
      out.push_back("{\"op\":\"store_at\",\"provider\":\"" +
                    std::string(n, 'P') + "\\\"," + d + "}");
    }
    for (const std::size_t n : {kMaxKeyBytes, kMaxKeyBytes + 1}) {
      out.push_back("{\"op\":\"stats\",\"" + std::string(n, 'k') +
                    "\":\"v\"}");
    }
    for (const std::size_t n : {kMaxFields, kMaxFields + 1}) {
      std::string line = "{\"op\":\"stats\"";
      for (std::size_t i = 1; i < n; ++i) {
        line += ",\"f" + std::to_string(i) + "\":\"v\"";
      }
      out.push_back(line + "}");
    }
    for (const std::size_t n : {kMaxRequestBytes, kMaxRequestBytes + 1}) {
      std::string line = "{\"op\":\"stats\"}";
      line.insert(1, n - line.size(), ' ');
      out.push_back(line);
    }
    // Base64 at the leaf cap and past it, and pools at and past theirs.
    const std::string leaf(kMaxCertB64Bytes, 'A');
    const std::string head =
        "{\"op\":\"verify_chain\",\"provider\":\"" + providers_.front() +
        "\"," + d + ",\"leaf\":\"";
    out.push_back(head + leaf + "\",\"pool\":[]}");
    out.push_back(head + leaf + "A\",\"pool\":[]}");
    out.push_back(head + "MIIB\",\"pool\":[]}");
    out.push_back(head + "MII B\",\"pool\":[]}");
    out.push_back(head + "MIIB\",\"pool\":[\"\"]}");
    for (const std::size_t n : {kMaxPoolCerts, kMaxPoolCerts + 1}) {
      std::string pool;
      for (std::size_t i = n; i > 0; --i) {
        if (!pool.empty()) pool.push_back(',');
        // Duplicates, in reverse order.
        pool += "\"" + std::string(4 * ((i + 1) / 2), 'B') + "\"";
      }
      out.push_back(head + "MIIB\",\"pool\":[" + pool + "]}");
    }
    out.push_back(
        "{\"op\":\"batch\",\"requests\":[" +
        [] {
          std::string items;
          for (std::size_t i = 0; i <= rs::query::kMaxBatchRequests; ++i) {
            if (i > 0) items.push_back(',');
            items += "{\"op\":\"stats\"}";
          }
          return items;
        }() +
        "]}");
    out.push_back("{\"op\":\"batch\",\"requests\":[]}");
    out.push_back("{\"op\":\"batch\",\"requests\":[{\"op\":\"stats\"}");
    out.push_back("");
    out.push_back("{}");
    out.push_back("{\"op\":\"Stats\"}");
    return out;
  }

  rs::crypto::Prng rng_;
  std::vector<std::string> verify_;
  std::vector<std::string> providers_;
  std::vector<std::string> fps_;
  std::vector<std::string> dates_;
  std::vector<std::pair<std::string, std::string>> agents_;
};

/// The golden list: 6,000 lines from seed 23 over `index` and the verify
/// corpus lines.
inline std::vector<std::string> golden_lines(
    const rs::query::TrustIndex& index,
    std::vector<std::string> verify_lines) {
  return LineMaker(index, std::move(verify_lines), 23).lines(6000);
}

}  // namespace rs::wire_golden
