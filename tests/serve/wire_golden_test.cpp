// Byte pin for the wire: every request line of wire_golden_lines.h, over
// the paper index as `rootstore index build` writes it and `rootstore
// serve --index` loads it, must produce the recorded bytes at each stage a
// client can see:
//   * the canonical form of the request (the response-cache key), or the
//     parse-error text;
//   * QueryEngine::handle_json's reply; and
//   * Server::respond_line's reply, through the response cache.
// The three constants below were recorded before the request path was
// rewritten to copy values in runs and write keys and responses in place;
// a change that moves any byte changes the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/query/engine.h"
#include "src/query/index_io.h"
#include "src/query/request.h"
#include "src/serve/server.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/user_agents.h"
#include "src/util/hex.h"
#include "tests/serve/wire_golden_lines.h"

#ifndef ROOTSTORE_GOLDEN_DIR
#error "ROOTSTORE_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace rs::serve {
namespace {

constexpr std::size_t kLines = 6000;
constexpr std::uint64_t kBytes = 17015337;
constexpr const char* kSha256 =
    "8a7a98268163bcf3eabccd5eca0b4a6c2eddec9b411e71113ca1684082655415";

/// The paper index, serialized and loaded back.
std::shared_ptr<const rs::query::QueryEngine> paper_rsix_engine() {
  const auto scenario = rs::synth::build_paper_scenario();
  const auto& db = scenario.database();
  const auto built = rs::query::TrustIndex::build(
      db, rs::store::CertInterner::from_database(db));
  const std::string image = rs::query::TrustIndexIO::serialize(built);
  auto loaded = rs::query::TrustIndexIO::deserialize(
      {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()});
  EXPECT_TRUE(loaded.ok()) << loaded.message();
  return std::make_shared<const rs::query::QueryEngine>(
      std::move(loaded).take(), rs::synth::user_agent_population());
}

TEST(WireGolden, ResponsesAreUnchanged) {
  const auto engine = paper_rsix_engine();
  const auto lines = rs::wire_golden::golden_lines(
      engine->index(),
      rs::wire_golden::read_lines(std::string(ROOTSTORE_GOLDEN_DIR) +
                                  "/verify/requests.ndjson"));
  Server server(engine, ServerOptions{});

  rs::crypto::Sha256 digest;
  std::uint64_t bytes = 0;
  std::string record;
  for (const std::string& line : lines) {
    auto parsed = rs::query::parse_request(line);
    record = parsed.ok() ? "C " + rs::query::canonical_request(parsed.value())
                         : "E " + parsed.error();
    record.push_back('\n');
    record += engine->handle_json(line);
    record.push_back('\n');
    record += server.respond_line(line);
    record.push_back('\n');
    digest.update({reinterpret_cast<const std::uint8_t*>(record.data()),
                   record.size()});
    bytes += record.size();
  }
  EXPECT_EQ(lines.size(), kLines);
  EXPECT_EQ(bytes, kBytes);
  EXPECT_EQ(rs::util::hex_encode(digest.finish()), kSha256);
}

}  // namespace
}  // namespace rs::serve
