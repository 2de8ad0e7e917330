// The request parser and canonicalizer against their referee
// (tests/referee/request_reference.h): over the committed fuzz corpus and
// the wire golden lines, every line and every batch item must parse to the
// same Request or fail with the same text, and canonicalize to the same
// bytes.  append_json_string must escape every byte as the referee does.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/crypto/prng.h"
#include "src/query/index_io.h"
#include "src/query/request.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "tests/referee/request_reference.h"
#include "tests/serve/wire_golden_lines.h"

#ifndef ROOTSTORE_QUERY_CORPUS_DIR
#error "ROOTSTORE_QUERY_CORPUS_DIR must point at fuzz/corpus/query_request"
#endif
#ifndef ROOTSTORE_GOLDEN_DIR
#error "ROOTSTORE_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace rs::query {
namespace {

namespace ref = rs::referee::request;

/// Checks one line; returns the number of parses compared.
std::size_t expect_agreement(std::string_view line) {
  const auto got = parse_request(line);
  const auto want = ref::parse_request(line);
  EXPECT_TRUE(ref::same_parse(got, want))
      << "line: " << line << "\n got: "
      << (got.ok() ? canonical_request(got.value()) : got.error())
      << "\nwant: "
      << (want.ok() ? ref::canonical_request(want.value()) : want.error());
  if (got.ok() && want.ok()) {
    EXPECT_EQ(canonical_request(got.value()),
              ref::canonical_request(want.value()))
        << "line: " << line;
  }
  std::size_t compared = 1;
  if (looks_like_batch(line)) {
    const auto items = parse_batch_request(line);
    if (items.ok()) {
      for (const std::string_view item : items.value()) {
        compared += expect_agreement(item);
      }
    }
  }
  return compared;
}

TEST(RequestReferee, CommittedCorpusAgrees) {
  std::size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(ROOTSTORE_QUERY_CORPUS_DIR)) {
    std::ifstream f(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    expect_agreement(bytes);
    ++seeds;
  }
  EXPECT_GE(seeds, 40u) << "corpus shrank";
}

TEST(RequestReferee, WireGoldenLinesAgree) {
  const auto scenario = rs::synth::build_paper_scenario();
  const auto& db = scenario.database();
  const auto index =
      TrustIndex::build(db, rs::store::CertInterner::from_database(db));
  const auto lines = rs::wire_golden::golden_lines(
      index, rs::wire_golden::read_lines(std::string(ROOTSTORE_GOLDEN_DIR) +
                                         "/verify/requests.ndjson"));
  std::size_t compared = 0;
  std::size_t accepted = 0;
  for (const auto& line : lines) {
    compared += expect_agreement(line);
    if (parse_request(line).ok()) ++accepted;
  }
  EXPECT_GT(compared, lines.size());  // batch items too
  EXPECT_GT(accepted, lines.size() / 2);
  EXPECT_LT(accepted, lines.size());
}

TEST(RequestReferee, AppendJsonStringEscapesEveryByteAlike) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  std::string got = "x";
  std::string want = "x";
  append_json_string(got, all);
  ref::append_json_string(want, all);
  EXPECT_EQ(got, want);

  rs::crypto::Prng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng.uniform(80), '\0');
    for (char& c : s) {
      // Mostly plain bytes, so runs of every length meet every escape.
      c = rng.chance(0.85) ? static_cast<char>('a' + rng.uniform(26))
                           : static_cast<char>(rng.uniform(256));
    }
    got.clear();
    want.clear();
    append_json_string(got, s);
    ref::append_json_string(want, s);
    ASSERT_EQ(got, want) << "case " << i;
  }
}

}  // namespace
}  // namespace rs::query
