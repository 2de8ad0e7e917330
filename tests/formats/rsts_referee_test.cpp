// The RSTS parser against its referee (tests/referee/rsts_reference.h), the
// parser as it was before `cert` lines were looked up ahead of tokenizing,
// one token vector served every line, and labels and pins stayed views.
// On every input both must give the same entries (DER, per-purpose trust,
// order), the same warnings in the same order, the same error, and leave
// their CertPools with the same parses, hits and size.  Each input runs
// through cold pools and through warm ones that already hold the
// certificates it names.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/prng.h"
#include "src/encoding/base64.h"
#include "src/formats/cert_pool.h"
#include "src/formats/portable.h"
#include "src/synth/paper_scenario.h"
#include "src/util/hex.h"
#include "src/util/strings.h"
#include "src/x509/builder.h"
#include "tests/referee/rsts_reference.h"

#ifndef ROOTSTORE_RSTS_CORPUS_DIR
#error "ROOTSTORE_RSTS_CORPUS_DIR must name fuzz/corpus/rsts"
#endif

namespace rs::formats {
namespace {

namespace fs = std::filesystem;
using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;

// One pool per parser, fed the same documents in the same order.
struct Pools {
  CertPool lib;
  CertPool ref;
};

void expect_agree(std::string_view text, Pools& pools,
                  const std::string& what) {
  const auto lib = parse_rsts(text, pools.lib);
  const auto ref = rs::referee::rsts::parse(text, pools.ref);
  ASSERT_EQ(lib.ok(), ref.ok()) << what;
  if (!lib.ok()) {
    EXPECT_EQ(lib.error(), ref.error()) << what;
  } else {
    EXPECT_EQ(lib.value().warnings, ref.value().warnings) << what;
    const auto& a = lib.value().entries;
    const auto& b = ref.value().entries;
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].certificate->der(), b[i].certificate->der())
          << what << ", entry " << i;
      EXPECT_EQ(a[i].purposes, b[i].purposes) << what << ", entry " << i;
    }
  }
  EXPECT_EQ(pools.lib.counts().parses, pools.ref.counts().parses) << what;
  EXPECT_EQ(pools.lib.counts().hits, pools.ref.counts().hits) << what;
  EXPECT_EQ(pools.lib.size(), pools.ref.size()) << what;
}

// `text` through fresh pools, then through pools warmed with `warmup`, and
// once more, when the pools hold whatever `text` itself decoded.
void expect_agree_cold_and_warm(std::string_view text, std::string_view warmup,
                                const std::string& what) {
  {
    Pools cold;
    expect_agree(text, cold, what + " (cold)");
  }
  Pools warm;
  expect_agree(warmup, warm, what + " (warm-up)");
  expect_agree(text, warm, what + " (warm)");
  expect_agree(text, warm, what + " (warm, again)");
}

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Referee Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

// Three roots, the second with a partial distrust and the third distrusted
// for email, so every kind of `trust` line is present.
std::vector<TrustEntry> base_entries() {
  std::vector<TrustEntry> out;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    out.push_back(rs::store::make_tls_anchor(make_cert(seed)));
  }
  out[1].trust_for(TrustPurpose::kServerAuth).distrust_after =
      rs::util::Date::ymd(2020, 6, 1);
  out[2].trust_for(TrustPurpose::kEmailProtection).level =
      TrustLevel::kDistrusted;
  return out;
}

std::vector<std::string> lines_of(std::string_view doc) {
  std::vector<std::string> out;
  for (const auto line : rs::util::split_lines(doc)) out.emplace_back(line);
  return out;
}

std::string join_lines(const std::vector<std::string>& lines,
                       std::string_view eol = "\n") {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += eol;
  }
  return out;
}

// Applies `edit` to every line whose first token is `key`.
template <typename Edit>
std::string edit_key_lines(std::string_view doc, std::string_view key,
                           Edit edit) {
  auto lines = lines_of(doc);
  for (auto& line : lines) {
    const auto tokens = rs::util::split_ws(line);
    if (!tokens.empty() && tokens[0] == key) edit(line);
  }
  return join_lines(lines);
}

// Replaces the space after the key of each line inside a root block (the
// indented ones) with `sep`.
std::string separate_keys_with(std::string_view doc, char sep) {
  auto lines = lines_of(doc);
  for (auto& line : lines) {
    if (!rs::util::starts_with(line, " ")) continue;
    const std::size_t key = line.find_first_not_of(' ');
    if (key == std::string::npos) continue;
    const std::size_t gap = line.find(' ', key);
    if (gap != std::string::npos) line[gap] = sep;
  }
  return join_lines(lines);
}

std::string b64(const TrustEntry& e) {
  return rs::encoding::base64_encode(e.certificate->der());
}

std::string pin_of(const TrustEntry& e) {
  return rs::util::hex_encode(e.certificate->sha256());
}

// The document with the first block's `cert` line replaced by `lines`.
std::string first_cert_line_as(std::string_view doc,
                               const std::vector<std::string>& lines) {
  auto out = lines_of(doc);
  const auto it = std::find_if(out.begin(), out.end(), [](const auto& l) {
    return rs::util::starts_with(rs::util::trim(l), "cert ");
  });
  const auto at = out.erase(it);
  out.insert(at, lines.begin(), lines.end());
  return join_lines(out);
}

// The document with the first block's pin replaced by `pin`.
std::string first_pin_as(std::string_view doc, const std::string& pin) {
  auto out = lines_of(doc);
  for (auto& line : out) {
    if (rs::util::starts_with(rs::util::trim(line), "sha256 ")) {
      line = "  sha256 " + pin;
      break;
    }
  }
  return join_lines(out);
}

// `pin` with the hex letters at every `step`-th position from `offset`
// upper-cased.
std::string upcase(std::string pin, std::size_t step, std::size_t offset) {
  for (std::size_t i = offset; i < pin.size(); i += step) {
    if (pin[i] >= 'a' && pin[i] <= 'f') {
      pin[i] = static_cast<char>(pin[i] - 'a' + 'A');
    }
  }
  return pin;
}

std::string byte_name(char c) {
  return std::to_string(static_cast<int>(static_cast<unsigned char>(c)));
}

struct Mutation {
  std::string name;
  std::string text;
};

std::vector<Mutation> named_mutations(const std::vector<TrustEntry>& base,
                                      const TrustEntry& fresh) {
  const std::string doc = write_rsts(base);
  const std::string pin0 = pin_of(base[0]);
  const std::string cert0 = "  cert " + b64(base[0]);
  const std::string cert_fresh = "  cert " + b64(fresh);
  std::vector<Mutation> out;
  out.push_back({"clean", doc});
  for (const char sep : {'\t', '\v', '\f', '\r'}) {
    out.push_back({"separator " + byte_name(sep),
                   separate_keys_with(doc, sep)});
  }
  // Bytes that are whitespace in no C-locale class: they glue the key to
  // its value.
  for (const char sep : {'\0', '\x85', '\xA0'}) {
    out.push_back({"non-separator " + byte_name(sep),
                   separate_keys_with(doc, sep)});
  }
  out.push_back({"crlf", join_lines(lines_of(doc), "\r\n")});
  out.push_back({"trailing whitespace",
                 join_lines(lines_of(doc), " \t\v\f \r\n")});
  out.push_back({"leading whitespace",
                 edit_key_lines(doc, "cert",
                                [](std::string& l) { l = "\v\f\t" + l; })});
  out.push_back({"cert A B",
                 edit_key_lines(doc, "cert", [](std::string& l) {
                   l += " " + std::string(rs::util::split_ws(l)[1]);
                 })});
  out.push_back({"bare cert", first_cert_line_as(doc, {"  cert"})});
  out.push_back({"cert then whitespace",
                 first_cert_line_as(doc, {"  cert \t"})});
  out.push_back({"cert glued", edit_key_lines(doc, "cert", [](std::string& l) {
                   l.erase(l.find("cert ") + 4, 1);
                 })});
  out.push_back({"CERT key", edit_key_lines(doc, "cert", [](std::string& l) {
                   l.replace(l.find("cert"), 4, "CERT");
                 })});
  out.push_back({"two-token sha256",
                 edit_key_lines(doc, "sha256",
                                [](std::string& l) { l += " extra"; })});
  out.push_back({"bare sha256", first_pin_as(doc, "")});
  out.push_back({"upper-case pin", first_pin_as(doc, upcase(pin0, 1, 0))});
  out.push_back({"mixed-case pin", first_pin_as(doc, upcase(pin0, 2, 0))});
  out.push_back({"mixed-case pin, other phase",
                 first_pin_as(doc, upcase(pin0, 2, 1))});
  out.push_back({"63-character pin", first_pin_as(doc, pin0.substr(0, 63))});
  out.push_back({"65-character pin", first_pin_as(doc, pin0 + "0")});
  out.push_back({"65-character pin, doubled last digit",
                 first_pin_as(doc, pin0 + pin0.substr(63))});
  out.push_back({"non-hex pin", first_pin_as(doc, "g" + pin0.substr(1))});
  out.push_back({"colon in pin", first_pin_as(doc, ":" + pin0.substr(1))});
  out.push_back({"high byte in pin",
                 first_pin_as(doc, "\xC9" + pin0.substr(1))});
  out.push_back({"another root's pin", first_pin_as(doc, pin_of(base[1]))});
  out.push_back({"hit then miss",
                 first_cert_line_as(doc, {cert0, cert_fresh})});
  out.push_back({"hit then miss, the miss pinned",
                 first_pin_as(first_cert_line_as(doc, {cert0, cert_fresh}),
                              pin_of(fresh))});
  out.push_back({"miss then hit",
                 first_cert_line_as(doc, {cert_fresh, cert0})});
  out.push_back({"hit then bad base64",
                 first_cert_line_as(doc, {cert0, "  cert !!!!"})});
  out.push_back({"bad base64 then hit",
                 first_cert_line_as(doc, {"  cert !!!!", cert0})});
  out.push_back({"miss then bad base64",
                 first_cert_line_as(doc, {cert_fresh, "  cert !!!!"})});
  out.push_back({"hit of another block's root",
                 first_cert_line_as(doc, {"  cert " + b64(base[1])})});
  out.push_back({"undecodable DER",
                 first_cert_line_as(doc, {"  cert AAAA"})});
  return out;
}

TEST(RstsReferee, AgreesOnNamedMutations) {
  const auto base = base_entries();
  const TrustEntry fresh = rs::store::make_tls_anchor(make_cert(4));
  const std::string warmup = write_rsts(base);
  for (const auto& m : named_mutations(base, fresh)) {
    expect_agree_cold_and_warm(m.text, warmup, m.name);
  }
}

TEST(RstsReferee, MutationsReachEveryBranch) {
  // The named mutations must exercise what the two parsers do differently:
  // pool hits behind odd separators, misses after hits, and pins that only
  // a case-insensitive, length-checked compare accepts or rejects.
  const auto base = base_entries();
  const TrustEntry fresh = rs::store::make_tls_anchor(make_cert(4));
  std::map<std::string, std::string> mutations;
  for (auto& m : named_mutations(base, fresh)) {
    mutations.emplace(std::move(m.name), std::move(m.text));
  }
  auto warm_parse = [&](const std::string& name) {
    CertPool pool;
    EXPECT_TRUE(parse_rsts(write_rsts(base), pool).ok());
    const std::size_t hits = pool.counts().hits;
    auto parsed = parse_rsts(mutations.at(name), pool);
    EXPECT_TRUE(parsed.ok()) << name;
    return std::pair{std::move(parsed).take(), pool.counts().hits - hits};
  };
  // Every `cert` line separated by tab, \v, \f or CR is a warm hit.
  for (const char* name : {"separator 9", "separator 11", "separator 12",
                           "separator 13", "crlf", "trailing whitespace",
                           "leading whitespace"}) {
    const auto [parsed, hits] = warm_parse(name);
    EXPECT_EQ(parsed.entries.size(), 3u) << name;
    EXPECT_TRUE(parsed.warnings.empty()) << name;
    EXPECT_EQ(hits, 3u) << name;
  }
  // Upper- and mixed-case pins are accepted; wrong lengths are not.
  for (const char* name : {"upper-case pin", "mixed-case pin",
                           "mixed-case pin, other phase"}) {
    EXPECT_EQ(warm_parse(name).first.entries.size(), 3u) << name;
  }
  for (const char* name : {"63-character pin", "65-character pin",
                           "65-character pin, doubled last digit",
                           "non-hex pin", "colon in pin", "high byte in pin",
                           "another root's pin", "hit then miss"}) {
    const auto parsed = warm_parse(name).first;
    EXPECT_EQ(parsed.entries.size(), 2u) << name;
    ASSERT_EQ(parsed.warnings.size(), 1u) << name;
    EXPECT_NE(parsed.warnings[0].find("pin mismatch"), std::string::npos)
        << name;
  }
  {
    const auto [parsed, hits] = warm_parse("hit then bad base64");
    EXPECT_EQ(hits, 3u);
    EXPECT_EQ(parsed.entries.size(), 2u);
    ASSERT_EQ(parsed.warnings.size(), 1u);
    EXPECT_NE(parsed.warnings[0].find("bad base64"), std::string::npos);
  }
  {
    const auto [parsed, hits] = warm_parse("miss then hit");
    EXPECT_EQ(hits, 3u);
    EXPECT_EQ(parsed.entries.size(), 3u);
    EXPECT_TRUE(parsed.warnings.empty());
  }
  {
    const auto [parsed, hits] = warm_parse("cert A B");
    EXPECT_EQ(hits, 0u);
    EXPECT_TRUE(parsed.entries.empty());
    EXPECT_EQ(parsed.warnings.size(), 6u);  // 3 unknown keys, 3 certless
  }
}

// Seeded random edits of one document: separators swapped for other bytes,
// whitespace appended, letters flipped in case, bytes dropped, lines
// duplicated, swapped or joined by a `cert` line of a root the warm pool
// holds or does not hold.
TEST(RstsReferee, AgreesOnSeededMutations) {
  const auto base = base_entries();
  const TrustEntry fresh = rs::store::make_tls_anchor(make_cert(4));
  const std::string doc = write_rsts(base);
  const std::vector<std::string> extra = {"  cert " + b64(base[2]),
                                          "  cert " + b64(fresh),
                                          "  sha256 " + pin_of(fresh),
                                          "  cert", "end", "root"};
  const std::string seps = std::string(" \t\v\f\r\n\0\x85\xA0", 9);
  rs::crypto::Prng rng(20);
  for (int round = 0; round < 400; ++round) {
    auto lines = lines_of(doc);
    const auto edits = 1 + rng.uniform(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      auto& line = lines[rng.uniform(lines.size())];
      switch (rng.uniform(7)) {
        case 0:
          if (const auto gap = line.rfind(' '); gap != std::string::npos) {
            line[gap] = seps[rng.uniform(seps.size())];
          }
          break;
        case 1:
          line.push_back(seps[rng.uniform(seps.size())]);
          break;
        case 2:
          if (!line.empty()) {
            char& c = line[rng.uniform(line.size())];
            if (c >= 'a' && c <= 'z') {
              c = static_cast<char>(c - 'a' + 'A');
            } else if (c >= 'A' && c <= 'Z') {
              c = rs::util::lower(c);
            }
          }
          break;
        case 3:
          if (!line.empty()) {
            line.erase(rng.uniform(line.size()), 1);
          }
          break;
        case 4:
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform(lines.size())),
                       extra[rng.uniform(extra.size())]);
          break;
        case 5:
          std::swap(line, lines[rng.uniform(lines.size())]);
          break;
        default: {
          const std::string copy = line;
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform(lines.size())),
                       copy);
          break;
        }
      }
    }
    expect_agree_cold_and_warm(join_lines(lines), doc,
                               "seeded mutation " + std::to_string(round));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RstsReferee, AgreesOnTheFuzzCorpus) {
  std::vector<fs::path> seeds;
  for (const auto& entry : fs::directory_iterator(ROOTSTORE_RSTS_CORPUS_DIR)) {
    seeds.push_back(entry.path());
  }
  std::sort(seeds.begin(), seeds.end());
  ASSERT_GE(seeds.size(), 13u);
  const auto read = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string warmup =
      read(fs::path(ROOTSTORE_RSTS_CORPUS_DIR) / "store.rsts");
  ASSERT_FALSE(warmup.empty());
  for (const auto& seed : seeds) {
    expect_agree_cold_and_warm(read(seed), warmup, seed.filename().string());
  }
}

// The paper dataset's 670 snapshot files, as write_dataset writes them.
std::vector<std::string> paper_documents() {
  const auto scenario = rs::synth::build_paper_scenario();
  std::vector<std::string> docs;
  for (const auto& [name, history] : scenario.database().histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      docs.push_back(write_rsts(snap.entries));
    }
  }
  return docs;
}

TEST(RstsReferee, AgreesOnThePaperDatasetWithColdPools) {
  const auto docs = paper_documents();
  ASSERT_EQ(docs.size(), 670u);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    Pools cold;
    expect_agree(docs[i], cold, "snapshot file " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RstsReferee, AgreesOnThePaperDatasetWithOneWarmPool) {
  // load_dataset's case: one pool per parser across every file in order.
  const auto docs = paper_documents();
  ASSERT_EQ(docs.size(), 670u);
  Pools warm;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    expect_agree(docs[i], warm, "snapshot file " + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(warm.lib.size(), 456u);
  EXPECT_EQ(warm.lib.counts().parses, 456u);
  EXPECT_EQ(warm.lib.counts().hits, 99087u - 456u);
}

}  // namespace
}  // namespace rs::formats
