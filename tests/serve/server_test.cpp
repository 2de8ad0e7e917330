// Serve-layer integration tests: the epoll socket path must answer
// byte-identically to the in-process engine under concurrent clients,
// survive malformed and oversized input, honor backpressure, answer batch
// envelopes, hot-swap engines mid-flight without mixing epochs, shed
// connections instead of spinning when its fd table is full, and drain
// gracefully on stop().  The suite is labelled `tsan` — it races real
// client threads against the event-loop pool and the RCU engine flip.
#include "src/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/registry.h"
#include "src/query/engine.h"
#include "src/store/database.h"
#include "src/util/hex.h"
#include "src/x509/builder.h"

namespace rs::serve {
namespace {

using rs::query::QueryEngine;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Serve Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

StoreDatabase make_db() {
  auto a = make_cert(1);
  auto b = make_cert(2);
  StoreDatabase db;
  ProviderHistory h("P");
  Snapshot s1;
  s1.provider = "P";
  s1.date = Date::ymd(2019, 1, 1);
  s1.version = "1";
  s1.entries = {rs::store::make_tls_anchor(a)};
  Snapshot s2;
  s2.provider = "P";
  s2.date = Date::ymd(2020, 1, 1);
  s2.version = "2";
  s2.entries = {rs::store::make_tls_anchor(a), rs::store::make_tls_anchor(b)};
  h.add(std::move(s1));
  h.add(std::move(s2));
  db.add(std::move(h));
  return db;
}

/// A second, distinguishable world for hot-swap tests: extra provider, so
/// e.g. {"op":"stats"} answers differently than make_db()'s engine.
StoreDatabase make_db_b() {
  StoreDatabase db = make_db();
  ProviderHistory h("Q");
  Snapshot s;
  s.provider = "Q";
  s.date = Date::ymd(2021, 1, 1);
  s.version = "1";
  s.entries = {rs::store::make_tls_anchor(make_cert(3))};
  h.add(std::move(s));
  db.add(std::move(h));
  return db;
}

/// Minimal blocking NDJSON client.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool send_raw(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads up to the next newline; empty optional on EOF/error.
  std::optional<std::string> read_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::optional<std::string> roundtrip(const std::string& request) {
    if (!send_raw(request + "\n")) return std::nullopt;
    return read_line();
  }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServerFixture {
  std::shared_ptr<const QueryEngine> engine =
      std::make_shared<const QueryEngine>(make_db(),
                                          std::vector<rs::synth::UserAgentGroup>{});
  std::unique_ptr<Server> server;
  std::uint16_t port = 0;

  explicit ServerFixture(ServerOptions options = {}) {
    server = std::make_unique<Server>(engine, options);
    auto bound = server->start();
    EXPECT_TRUE(bound.ok()) << bound.error();
    port = bound.ok() ? bound.value() : 0;
  }
};

std::vector<std::string> request_mix() {
  const std::string fp_a = rs::util::hex_encode(make_cert(1)->sha256());
  const std::string fp_b = rs::util::hex_encode(make_cert(2)->sha256());
  return {
      R"({"op":"stats"})",
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})",
      R"({"op":"store_at","provider":"P","date":"2020-06-01"})",
      R"({"op":"store_at","provider":"P","date":"1999-01-01"})",
      R"({"op":"is_trusted","provider":"P","fp":")" + fp_a +
          R"(","date":"2019-06-01"})",
      R"({"op":"is_trusted","provider":"P","fp":")" + fp_b +
          R"(","date":"2019-06-01"})",
      R"({"op":"diff","provider":"P","date_a":"2019-06-01","date_b":"2020-06-01"})",
      R"({"op":"lineage","fp":")" + fp_b + R"("})",
      R"({"op":"providers_trusting","fp":")" + fp_a +
          R"(","date":"2019-06-01"})",
      R"({"op":"agreement_at","date":"2019-06-01"})",
      R"({"op":"agreement_at","date":"2020-06-01","scope":"present"})",
      R"({"op":"ct_coverage","provider":"P","date":"2020-06-01"})",
      R"({"op":"ct_coverage","provider":"Nope","date":"2020-06-01"})",
      R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})",
      R"(garbage that does not parse)",
  };
}

/// The acceptance criterion: N concurrent clients each replay the mix and
/// every socket response must equal the in-process engine's bytes.
void expect_byte_identical(std::size_t num_clients) {
  ServerFixture f;
  ASSERT_NE(f.port, 0);
  const auto mix = request_mix();
  std::vector<std::vector<std::string>> got(num_clients);
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&f, &mix, &got, c] {
      Client client(f.port);
      if (!client.connected()) return;
      for (std::size_t lap = 0; lap < 3; ++lap) {
        for (const auto& line : mix) {
          auto response = client.roundtrip(line);
          if (!response) return;
          got[c].push_back(*response);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t c = 0; c < num_clients; ++c) {
    ASSERT_EQ(got[c].size(), mix.size() * 3) << "client " << c;
    for (std::size_t lap = 0; lap < 3; ++lap) {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        EXPECT_EQ(got[c][lap * mix.size() + i], f.engine->handle_json(mix[i]))
            << "client " << c << " request " << mix[i];
      }
    }
  }
  f.server->stop();
}

TEST(Server, ByteIdenticalToEngineOneClient) { expect_byte_identical(1); }
TEST(Server, ByteIdenticalToEngineFourClients) { expect_byte_identical(4); }
TEST(Server, ByteIdenticalToEngineEightClients) { expect_byte_identical(8); }

TEST(Server, ByteIdenticalWithSingleEventLoop) {
  // num_threads 0 clamps to one event loop, which then owns accept AND all
  // connections.  The bytes contract is unchanged.
  ServerOptions options;
  options.num_threads = 0;
  ServerFixture f(options);
  ASSERT_NE(f.port, 0);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  for (const auto& line : request_mix()) {
    auto response = client.roundtrip(line);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, f.engine->handle_json(line));
  }
  f.server->stop();
}

TEST(Server, PipelinedRequestsAnswerInOrder) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const auto mix = request_mix();
  std::string burst;
  for (const auto& line : mix) burst += line + "\n";
  ASSERT_TRUE(client.send_raw(burst));
  for (const auto& line : mix) {
    auto response = client.read_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, f.engine->handle_json(line));
  }
  f.server->stop();
}

TEST(Server, OversizedLineGetsStructuredErrorThenClose) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  // The transport cap now admits a full batch line, so the flood must
  // exceed kMaxBatchBytes (not kMaxRequestBytes) to trip it.
  const std::string huge(rs::query::kMaxBatchBytes + 100, 'x');
  ASSERT_TRUE(client.send_raw(huge));  // no newline: unterminated flood
  auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(QueryEngine::is_error_response(*response));
  EXPECT_NE(response->find("\"code\":\"oversized\""), std::string::npos);
  // The connection closes after the error (framing is lost).
  EXPECT_FALSE(client.read_line().has_value());
  f.server->stop();
}

TEST(Server, SingleRequestOverOldCapStillAnswersBadRequest) {
  // A non-batch line above kMaxRequestBytes but under the transport cap is
  // framed fine; the parser rejects it and the connection stays usable.
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string big =
      R"({"op":"stats","pad":")" +
      std::string(rs::query::kMaxRequestBytes, 'y') + R"("})";
  auto response = client.roundtrip(big);
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":\"bad_request\""), std::string::npos);
  // Still open: the next request answers normally.
  auto next = client.roundtrip(R"({"op":"stats"})");
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, f.engine->handle_json(R"({"op":"stats"})"));
  f.server->stop();
}

TEST(Server, EofMidRequestAnswersBadRequest) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw(R"({"op":"stats")"));  // no closing newline
  client.half_close();
  auto response = client.read_line();
  ASSERT_TRUE(response.has_value());
  EXPECT_NE(response->find("\"code\":\"bad_request\""), std::string::npos);
  f.server->stop();
}

TEST(Server, CacheHitsAreCountedAndStatsServed) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string line =
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})";
  // Same canonical request twice: first misses, second hits.
  const auto first = client.roundtrip(line);
  const auto second = client.roundtrip(line);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  // Spelling the default scope explicitly still hits the same entry.
  const auto third = client.roundtrip(
      R"({"op":"store_at","provider":"P","scope":"tls","date":"2019-06-01"})");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(*third, *first);

  const auto stats = client.roundtrip(R"({"op":"server_stats"})");
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"op\":\"server_stats\""), std::string::npos);
  EXPECT_NE(stats->find("\"cache_hits\":2"), std::string::npos);
  EXPECT_NE(stats->find("\"cache_shards\":"), std::string::npos);
  EXPECT_NE(stats->find("\"epoch\":0"), std::string::npos);

  const ServerStats s = f.server->stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_GE(s.cache_misses, 1u);
  f.server->stop();
}

TEST(Server, LandscapeOpsShareOneCacheSlotAcrossSpellings) {
  // agreement_at/ct_coverage ride the op-agnostic canonical cache key:
  // whitespace, field order, and an explicit default scope must all hit
  // the entry the first spelling populated.
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const auto first =
      client.roundtrip(R"({"op":"agreement_at","date":"2019-06-01"})");
  const auto spaced = client.roundtrip(
      R"({ "op" : "agreement_at" , "scope" : "tls" , "date" : "2019-06-01" })");
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(*spaced, *first);
  const auto ct =
      client.roundtrip(R"({"op":"ct_coverage","provider":"P","date":"2020-06-01"})");
  const auto ct_reordered = client.roundtrip(
      R"({"op":"ct_coverage","date":"2020-06-01","scope":"tls","provider":"P"})");
  ASSERT_TRUE(ct.has_value());
  ASSERT_TRUE(ct_reordered.has_value());
  EXPECT_EQ(*ct_reordered, *ct);
  EXPECT_EQ(f.server->stats().cache_hits, 2u);
  f.server->stop();
}

TEST(Server, ErrorsAreNeverCached) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string bad =
      R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})";
  ASSERT_TRUE(client.roundtrip(bad).has_value());
  ASSERT_TRUE(client.roundtrip(bad).has_value());
  EXPECT_EQ(f.server->stats().cache_hits, 0u);
  f.server->stop();
}

TEST(Server, StopDrainsInFlightRequestsAndRefusesNewConnections) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  // Prove the connection is live, then stop the server while the client
  // sits idle: stop() must close it and return rather than hang.
  ASSERT_TRUE(client.roundtrip(R"({"op":"stats"})").has_value());
  f.server->stop();
  EXPECT_FALSE(f.server->running());
  // The drained connection reads EOF.
  EXPECT_FALSE(client.read_line().has_value());
  // stop() is idempotent.
  f.server->stop();
}

TEST(Server, RespondLineMatchesSocketSemantics) {
  ServerFixture f;
  const std::string line = R"({"op":"stats"})";
  EXPECT_EQ(f.server->respond_line(line), f.engine->handle_json(line));
  f.server->stop();
}

// The registry counters are resolved once per process and shared by every
// event loop: with the registry on, pipelined requests spread over two
// loops must move serve.requests, and the cache's hits plus misses, by
// exactly one each per request.
TEST(Server, RegistryCountsEveryPipelinedRequestAcrossLoops) {
  auto& registry = rs::obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.enable();
  ServerOptions options;
  options.num_threads = 2;
  ServerFixture f(options);
  ASSERT_NE(f.port, 0);
  // Every line but the garbage one reaches the cache exactly once.
  std::vector<std::string> mix;
  for (const auto& line : request_mix()) {
    if (line.front() == '{') mix.push_back(line);
  }
  const auto lookups = [&registry] {
    return registry.counter_value("serve.cache_hits") +
           registry.counter_value("serve.cache_misses");
  };
  const std::uint64_t requests_before = registry.counter_value("serve.requests");
  const std::uint64_t lookups_before = lookups();

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kLaps = 5;
  std::vector<std::size_t> answered(kClients, 0);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&f, &mix, &answered, c] {
      Client client(f.port);
      if (!client.connected()) return;
      std::string burst;
      for (std::size_t lap = 0; lap < kLaps; ++lap) {
        for (const auto& line : mix) burst += line + "\n";
      }
      if (!client.send_raw(burst)) return;
      for (std::size_t i = 0; i < kLaps * mix.size(); ++i) {
        if (!client.read_line()) return;
        ++answered[c];
      }
    });
  }
  for (auto& t : clients) t.join();
  f.server->stop();

  const std::uint64_t n = kClients * kLaps * mix.size();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[c], kLaps * mix.size()) << "client " << c;
  }
  EXPECT_EQ(registry.counter_value("serve.requests") - requests_before, n);
  EXPECT_EQ(lookups() - lookups_before, n);
  EXPECT_EQ(f.server->stats().requests, n);
  if (!was_enabled) registry.disable();
}

// ---------------------------------------------------------------------------
// Batch protocol

std::string make_batch(const std::vector<std::string>& items) {
  std::string line = R"({"op":"batch","requests":[)";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += items[i];
  }
  line += "]}";
  return line;
}

TEST(ServerBatch, BatchMatchesEngineAndAnswersInOrder) {
  ServerFixture f;
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const auto mix = request_mix();
  // Drop the non-JSON garbage line: inside a batch, items must be objects
  // (the envelope parser frames by braces).
  std::vector<std::string> items(mix.begin(), mix.end() - 1);
  const std::string line = make_batch(items);
  auto response = client.roundtrip(line);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, f.engine->handle_json(line));
  EXPECT_NE(response->find("\"op\":\"batch\""), std::string::npos);
  EXPECT_NE(response->find("\"count\":" + std::to_string(items.size())),
            std::string::npos);
  EXPECT_EQ(f.server->stats().batch_items, items.size());
  f.server->stop();
}

TEST(ServerBatch, PerItemErrorsAreIsolatedToTheirSlot) {
  ServerFixture f;
  const std::string good = R"({"op":"stats"})";
  const std::string bad = R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})";
  const std::string line = make_batch({good, bad, good});
  const std::string response = f.server->respond_line(line);
  // The envelope itself is not an error; the bad item's slot carries one.
  EXPECT_FALSE(QueryEngine::is_error_response(response));
  EXPECT_EQ(response, f.engine->handle_json(line));
  EXPECT_NE(response.find("\"code\":\"unknown_provider\""), std::string::npos);
  EXPECT_NE(response.find("\"op\":\"stats\""), std::string::npos);
  f.server->stop();
}

TEST(ServerBatch, NestedBatchesAreRejectedPerSlot) {
  ServerFixture f;
  const std::string inner = make_batch({R"({"op":"stats"})"});
  const std::string line = make_batch({inner});
  const std::string response = f.server->respond_line(line);
  EXPECT_EQ(response, f.engine->handle_json(line));
  EXPECT_NE(response.find("batch requests may not nest"), std::string::npos);
  f.server->stop();
}

TEST(ServerBatch, OverCapBatchIsRejectedWhole) {
  ServerFixture f;
  std::vector<std::string> items(rs::query::kMaxBatchRequests + 1,
                                 R"({"op":"stats"})");
  const std::string line = make_batch(items);
  const std::string response = f.server->respond_line(line);
  EXPECT_TRUE(QueryEngine::is_error_response(response));
  EXPECT_EQ(response, f.engine->handle_json(line));
  EXPECT_EQ(f.server->stats().batch_items, 0u);
  f.server->stop();
}

TEST(ServerBatch, BatchItemsShareTheResponseCache) {
  ServerFixture f;
  const std::string item =
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})";
  // Four copies in one batch: first misses, the rest hit; a repeat batch
  // hits all four times.
  const std::string line = make_batch({item, item, item, item});
  ASSERT_FALSE(QueryEngine::is_error_response(f.server->respond_line(line)));
  ASSERT_FALSE(QueryEngine::is_error_response(f.server->respond_line(line)));
  const ServerStats s = f.server->stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 7u);
  EXPECT_EQ(s.batch_items, 8u);
  f.server->stop();
}

// ---------------------------------------------------------------------------
// Error accounting

// Each kind of error response, from the line parsers, the engine, the admin
// op and the transport, moves ServerStats::errors, the serve.errors mirror
// and server_stats' "errors" field by exactly one.
TEST(Server, EveryErrorCountsOnce) {
  auto& registry = rs::obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.enable();
  ServerFixture f;
  ASSERT_NE(f.port, 0);

  struct Counts {
    std::uint64_t stats;
    std::uint64_t mirror;
    std::uint64_t wire;
  };
  const auto counts = [&f, &registry] {
    const std::string stats =
        f.server->respond_line(R"({"op":"server_stats"})");
    const std::string field = "\"errors\":";
    const std::size_t at = stats.find(field);
    EXPECT_NE(at, std::string::npos) << stats;
    return Counts{f.server->stats().errors,
                  registry.counter_value("serve.errors"),
                  at == std::string::npos
                      ? 0
                      : std::stoull(stats.substr(at + field.size()))};
  };
  const auto expect_one_more = [&counts](const Counts& before,
                                         const std::string& kind) {
    const Counts after = counts();
    EXPECT_EQ(after.stats - before.stats, 1u) << kind;
    EXPECT_EQ(after.mirror - before.mirror, 1u) << kind;
    EXPECT_EQ(after.wire - before.wire, 1u) << kind;
  };

  const std::vector<std::pair<std::string, std::string>> lines = {
      {"bad batch envelope", R"({"op":"batch"})"},
      {"nested batch item", make_batch({make_batch({R"({"op":"stats"})"})})},
      {"parse error", "garbage that does not parse"},
      {"engine error",
       R"({"op":"store_at","provider":"Nope","date":"2019-06-01"})"},
      {"reload_index without a factory", R"({"op":"reload_index"})"},
  };
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  for (const auto& [kind, line] : lines) {
    const Counts before = counts();
    const auto response = client.roundtrip(line);
    ASSERT_TRUE(response.has_value()) << kind;
    EXPECT_NE(response->find("\"code\":\""), std::string::npos) << kind;
    expect_one_more(before, kind);
  }

  {
    const Counts before = counts();
    Client flood(f.port);
    ASSERT_TRUE(flood.connected());
    ASSERT_TRUE(
        flood.send_raw(std::string(rs::query::kMaxBatchBytes + 100, 'x')));
    const auto response = flood.read_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("\"code\":\"oversized\""), std::string::npos);
    expect_one_more(before, "oversized line");
  }
  {
    const Counts before = counts();
    Client cut(f.port);
    ASSERT_TRUE(cut.connected());
    ASSERT_TRUE(cut.send_raw(R"({"op":"stats")"));
    cut.half_close();
    const auto response = cut.read_line();
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("\"code\":\"bad_request\""),
              std::string::npos);
    expect_one_more(before, "EOF mid-line");
  }
  f.server->stop();
  if (!was_enabled) registry.disable();
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(Server, BackpressureSurvivesSlowReaderPipelining) {
  // A tiny write cap forces the server to pause reading whenever a few
  // responses are pending.  A client that floods requests while a separate
  // thread is the only reader must still get every response, in order.
  ServerOptions options;
  options.write_buffer_cap = 1024;
  ServerFixture f(options);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  const std::string line =
      R"({"op":"store_at","provider":"P","date":"2019-06-01"})";
  const std::string expected = f.engine->handle_json(line);
  constexpr std::size_t kBurst = 1000;

  std::thread writer([&client, &line] {
    std::string chunk;
    for (std::size_t i = 0; i < 50; ++i) chunk += line + "\n";
    for (std::size_t i = 0; i < kBurst / 50; ++i) {
      if (!client.send_raw(chunk)) return;
    }
  });
  std::size_t matched = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto response = client.read_line();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    if (*response == expected) ++matched;
  }
  writer.join();
  EXPECT_EQ(matched, kBurst);
  f.server->stop();
}

// ---------------------------------------------------------------------------
// Hot swap (RCU epoch flip)

TEST(ServerSwap, SwapInvalidatesCachedAnswersViaEpochKeys) {
  ServerFixture f;
  auto engine_b = std::make_shared<const QueryEngine>(
      make_db_b(), std::vector<rs::synth::UserAgentGroup>{});
  const std::string line = R"({"op":"stats"})";
  const std::string before = f.server->respond_line(line);
  EXPECT_EQ(before, f.engine->handle_json(line));
  // Prime the cache under epoch 0, then flip.
  EXPECT_EQ(f.server->respond_line(line), before);
  f.server->swap_engine(engine_b);
  EXPECT_EQ(f.server->epoch(), 1u);
  const std::string after = f.server->respond_line(line);
  EXPECT_EQ(after, engine_b->handle_json(line));
  EXPECT_NE(after, before) << "make_db_b must be distinguishable";
  f.server->stop();
}

TEST(ServerSwap, MidFlightSwapsNeverMixEpochs) {
  // >= 10 flips while four clients hammer the same request over sockets:
  // every observed response must be byte-identical to exactly one of the
  // two engines' answers, and the epoch must land at the flip count.
  ServerFixture f;
  auto engine_b = std::make_shared<const QueryEngine>(
      make_db_b(), std::vector<rs::synth::UserAgentGroup>{});
  const std::string line = R"({"op":"stats"})";
  const std::string bytes_a = f.engine->handle_json(line);
  const std::string bytes_b = engine_b->handle_json(line);
  ASSERT_NE(bytes_a, bytes_b);

  constexpr int kFlips = 12;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      Client client(f.port);
      if (!client.connected()) return;
      while (!done.load(std::memory_order_acquire)) {
        auto response = client.roundtrip(line);
        if (!response) return;
        if (*response != bytes_a && *response != bytes_b) {
          // memory-order: relaxed — test tally, read after joins.
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int flip = 1; flip <= kFlips; ++flip) {
    f.server->swap_engine(flip % 2 == 1 ? engine_b : f.engine);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(f.server->epoch(), static_cast<std::uint64_t>(kFlips));
  const std::string stats = f.server->respond_line(R"({"op":"server_stats"})");
  EXPECT_NE(stats.find("\"epoch\":" + std::to_string(kFlips)),
            std::string::npos);
  f.server->stop();
}

// ---------------------------------------------------------------------------
// reload_index admin op

TEST(ServerReload, ReloadWithoutFactoryAnswersUnavailable) {
  ServerFixture f;
  const std::string response = f.server->respond_line(R"({"op":"reload_index"})");
  EXPECT_TRUE(QueryEngine::is_error_response(response));
  EXPECT_NE(response.find("\"code\":\"reload_unavailable\""),
            std::string::npos);
  f.server->stop();
}

TEST(ServerReload, ReloadOpFlipsEpochAsynchronously) {
  auto engine_b = std::make_shared<const QueryEngine>(
      make_db_b(), std::vector<rs::synth::UserAgentGroup>{});
  ServerOptions options;
  options.reload_factory =
      [engine_b]() -> rs::util::Result<std::shared_ptr<const QueryEngine>> {
    return engine_b;
  };
  ServerFixture f(options);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  auto accepted = client.roundtrip(R"({"op":"reload_index"})");
  ASSERT_TRUE(accepted.has_value());
  EXPECT_NE(accepted->find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(accepted->find("\"epoch\":0"), std::string::npos);

  // The flip is off-loop; poll server_stats until it lands.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool flipped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    auto stats = client.roundtrip(R"({"op":"server_stats"})");
    ASSERT_TRUE(stats.has_value());
    if (stats->find("\"epoch\":1") != std::string::npos &&
        stats->find("\"reloads\":1") != std::string::npos) {
      flipped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(flipped);
  auto answer = client.roundtrip(R"({"op":"stats"})");
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, engine_b->handle_json(R"({"op":"stats"})"));
  f.server->stop();
}

TEST(ServerReload, FailedReloadKeepsServingCurrentEpoch) {
  ServerOptions options;
  options.reload_factory =
      []() -> rs::util::Result<std::shared_ptr<const QueryEngine>> {
    return rs::util::Result<std::shared_ptr<const QueryEngine>>::err(
        "index file corrupt");
  };
  ServerFixture f(options);
  Client client(f.port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.roundtrip(R"({"op":"reload_index"})").has_value());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (f.server->stats().reload_failures == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(f.server->stats().reload_failures, 1u);
  EXPECT_EQ(f.server->epoch(), 0u);
  auto answer = client.roundtrip(R"({"op":"stats"})");
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, f.engine->handle_json(R"({"op":"stats"})"));
  f.server->stop();
}

// ---------------------------------------------------------------------------
// Descriptor exhaustion: a full fd table must shed, not spin

template <typename T>
bool pipe_write(int fd, const T& value) {
  return ::write(fd, &value, sizeof value) ==
         static_cast<ssize_t>(sizeof value);
}

template <typename T>
bool pipe_read(int fd, T& value) {
  return ::read(fd, &value, sizeof value) ==
         static_cast<ssize_t>(sizeof value);
}

/// The forked server half of the test below: one event loop over make_db(),
/// RLIMIT_NOFILE lowered to four descriptors past those already open.  On
/// 'm' it reports its own CPU time over one second and the shed count; on
/// 's' (or EOF) it drains and exits.  Never returns into gtest.
[[noreturn]] void serve_at_fd_limit(int to_parent, int from_parent) {
  rs::obs::Registry::global().enable();
  ServerOptions options;
  options.num_threads = 1;
  Server server(std::make_shared<const QueryEngine>(
                    make_db(), std::vector<rs::synth::UserAgentGroup>{}),
                options);
  auto bound = server.start();
  if (!bound.ok()) ::_exit(3);
  const int lowest_free = ::fcntl(from_parent, F_DUPFD, 0);
  ::close(lowest_free);
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  limit.rlim_cur = static_cast<rlim_t>(lowest_free + 4);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(4);
  if (!pipe_write(to_parent, bound.value())) ::_exit(5);

  char command = 0;
  if (pipe_read(from_parent, command) && command == 'm') {
    const std::clock_t start = std::clock();  // CPU time of all threads
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double cpu_s =
        static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
    const std::uint64_t shed =
        rs::obs::Registry::global().counter_value("serve.accept_shed");
    if (!pipe_write(to_parent, cpu_s) || !pipe_write(to_parent, shed)) {
      ::_exit(6);
    }
    pipe_read(from_parent, command);
  }
  server.stop();
  ::_exit(0);
}

TEST(ServerLimits, FullFdTableShedsConnectionsInsteadOfSpinning) {
  // Fork first, while this process has no threads; the child alone runs
  // the fd-limited server, so the clients here keep the normal limit.
  int up[2];
  int down[2];
  ASSERT_EQ(::pipe(up), 0);
  ASSERT_EQ(::pipe(down), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(up[0]);
    ::close(down[1]);
    serve_at_fd_limit(up[1], down[0]);
  }
  ::close(up[1]);
  ::close(down[0]);
  // Kills and reaps the child when an assertion below returns early.
  struct Reaper {
    Reaper(pid_t child, int a, int b) : pid(child), fds{a, b} {}
    Reaper(const Reaper&) = delete;
    Reaper& operator=(const Reaper&) = delete;
    ~Reaper() {
      ::close(fds[0]);
      ::close(fds[1]);
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
    pid_t pid;
    int fds[2];
  } reaper(pid, up[0], down[1]);

  std::uint16_t port = 0;
  ASSERT_TRUE(pipe_read(up[0], port));
  const QueryEngine engine(make_db(), {});
  const std::string line = R"({"op":"stats"})";
  Client established(port);
  ASSERT_TRUE(established.connected());
  auto before = established.roundtrip(line);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(*before, engine.handle_json(line));

  // Ten times the headroom, all inside the listen backlog: most of these
  // are still pending when the server's fd table fills.
  std::vector<std::unique_ptr<Client>> flood;
  for (int i = 0; i < 40; ++i) flood.push_back(std::make_unique<Client>(port));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  ASSERT_TRUE(pipe_write(down[1], 'm'));
  double cpu_s = -1;
  std::uint64_t shed = 0;
  ASSERT_TRUE(pipe_read(up[0], cpu_s));
  ASSERT_TRUE(pipe_read(up[0], shed));
  EXPECT_LT(cpu_s, 0.2) << "server burned " << cpu_s
                        << " s of CPU in 1 s at its fd limit";
  EXPECT_GT(shed, 0u);
  auto after = established.roundtrip(line);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(*after, engine.handle_json(line));

  flood.clear();
  ASSERT_TRUE(pipe_write(down[1], 's'));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  reaper.pid = 0;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

}  // namespace
}  // namespace rs::serve
