// serve_loadgen — NDJSON client and load generator for `rootstore serve`.
//
//   serve_loadgen --port N --oneshot '<json>'
//       Send one request, print the response line, exit 0 (1 on transport
//       failure).  Used by tools/serve_smoke.sh and
//       tools/port_file_smoke.sh.
//
//   serve_loadgen --port N [--connections C] [--requests M] [--batch K]
//                 [--json-out FILE]
//       Benchmark mode: C concurrent connections (1..256) issue M requests
//       (1..1,000,000) per phase — a MISS phase of distinct store_at/diff/
//       is_trusted/lineage requests over the paper scenario, then a HIT
//       phase replaying a small working set so the server's LRU answers
//       from cache.  --batch K wraps every K requests into one
//       {"op":"batch",...} line (the throughput figures stay per-QUERY, so
//       batch vs singleton numbers compare directly).  Reports throughput
//       and p50/p99/p99.9 latency per phase as JSON to FILE (default
//       stdout): tools/record_bench.sh records BENCH_serve.json with it.
//
// The request mix is generated deterministically from the scenario
// database, four ops at equal weight, so runs are comparable across
// machines and commits.  A malformed or out-of-range flag exits 2 before
// any connection is made.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/query/engine.h"
#include "src/query/request.h"
#include "src/store/database.h"
#include "src/synth/paper_scenario.h"
#include "src/util/hex.h"
#include "src/util/stats.h"
#include "src/util/strings.h"

namespace {

// Flag caps: one client thread per connection, and every request of a
// phase is generated up front.
constexpr std::size_t kMaxConnections = 256;
constexpr std::size_t kMaxRequests = 1'000'000;

int die(const std::string& message) {
  std::fprintf(stderr, "serve_loadgen: %s\n", message.c_str());
  return 1;
}

int usage() {
  std::fputs("usage: serve_loadgen --port N [--connections C] [--requests M] "
             "[--batch K] [--json-out FILE] [--oneshot '<json>']\n",
             stderr);
  return 2;
}

// Reads `text` into `out` as an integer in 1..max through
// rs::util::parse_count.  On failure prints one line naming `flag`; the
// caller then exits 2.
bool parse_flag(std::string_view flag, std::string_view text,
                std::size_t max, std::size_t& out) {
  const auto value = rs::util::parse_count(text, max);
  if (!value || *value == 0) {
    std::fprintf(stderr,
                 "serve_loadgen: %.*s must be an integer 1..%zu, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(), max,
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  out = *value;
  return true;
}

/// A blocking NDJSON connection to the server.
class Connection {
 public:
  bool open(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }

  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends one line and reads one response line (sans newline).
  bool roundtrip(const std::string& request, std::string& response) {
    std::string line = request;
    line.push_back('\n');
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        response.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Deterministic request mix drawn from the scenario database: store_at,
/// diff, is_trusted and lineage at equal weight.
std::vector<std::string> build_requests(const rs::store::StoreDatabase& db,
                                        std::size_t count,
                                        std::uint64_t salt) {
  std::vector<std::string> providers = db.providers();
  // Every root ever TLS-trusted anywhere, in digest order.
  std::vector<rs::crypto::Sha256Digest> roots;
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& entry : snap.entries) {
        if (entry.is_tls_anchor()) roots.push_back(entry.certificate->sha256());
      }
    }
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  std::vector<std::string> fps;
  for (const auto& fp : roots) fps.push_back(rs::util::hex_encode(fp));
  std::vector<std::string> requests;
  requests.reserve(count);
  std::uint64_t state = salt * 0x9E3779B97F4A7C15ULL + 1;
  const auto next = [&state](std::size_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::size_t>((state >> 33) % bound);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& provider = providers[next(providers.size())];
    const auto* history = db.find(provider);
    const auto first = history->first_date();
    const auto span_days =
        static_cast<std::size_t>(history->last_date() - first) + 1;
    const std::string date = (first + static_cast<std::int64_t>(
                                          next(span_days))).to_string();
    switch (next(4)) {
      case 0:
        requests.push_back("{\"op\":\"store_at\",\"provider\":\"" + provider +
                           "\",\"date\":\"" + date + "\"}");
        break;
      case 1: {
        const std::string date_b =
            (first + static_cast<std::int64_t>(next(span_days))).to_string();
        requests.push_back("{\"op\":\"diff\",\"provider\":\"" + provider +
                           "\",\"date_a\":\"" + date + "\",\"date_b\":\"" +
                           date_b + "\"}");
        break;
      }
      case 2:
        requests.push_back("{\"op\":\"is_trusted\",\"provider\":\"" +
                           provider + "\",\"fp\":\"" + fps[next(fps.size())] +
                           "\",\"date\":\"" + date + "\"}");
        break;
      default:
        requests.push_back("{\"op\":\"lineage\",\"fp\":\"" +
                           fps[next(fps.size())] + "\"}");
        break;
    }
  }
  return requests;
}

/// Wraps `requests` into batch envelopes of `batch` items each (the
/// remainder short of a full envelope is dropped so every line carries
/// exactly `batch` queries and per-query math stays exact).
std::vector<std::string> batch_lines(const std::vector<std::string>& requests,
                                     std::size_t batch) {
  std::vector<std::string> lines;
  lines.reserve(requests.size() / batch);
  for (std::size_t i = 0; i + batch <= requests.size(); i += batch) {
    std::string line = "{\"op\":\"batch\",\"requests\":[";
    for (std::size_t j = 0; j < batch; ++j) {
      if (j > 0) line.push_back(',');
      line += requests[i + j];
    }
    line += "]}";
    lines.push_back(std::move(line));
  }
  return lines;
}

struct PhaseResult {
  double seconds = 0;
  std::size_t lines = 0;       // request lines round-tripped
  std::size_t requests = 0;    // individual queries (lines × batch size)
  double p50_us = 0;           // per-LINE latency percentiles
  double p99_us = 0;
  double p999_us = 0;

  double throughput() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
};

/// Runs `lines` round-robin across `connections` client threads, one pass;
/// each line counts as `queries_per_line` requests.  Latencies are per-line
/// microseconds.
bool run_phase(std::uint16_t port, std::size_t connections,
               const std::vector<std::string>& lines,
               std::size_t queries_per_line, PhaseResult& out) {
  std::vector<std::vector<double>> latencies(connections);
  std::vector<bool> failed(connections, false);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      Connection conn;
      if (!conn.open(port)) {
        failed[c] = true;
        return;
      }
      std::string response;
      for (std::size_t i = c; i < lines.size(); i += connections) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!conn.roundtrip(lines[i], response)) {
          failed[c] = true;
          return;
        }
        const auto t1 = std::chrono::steady_clock::now();
        latencies[c].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (auto& t : clients) t.join();
  const auto wall_end = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < connections; ++c) {
    if (failed[c]) return false;
  }
  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  out.seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  out.lines = all.size();
  out.requests = all.size() * queries_per_line;
  out.p50_us = rs::util::percentile(all, 50.0);
  out.p99_us = rs::util::percentile(all, 99.0);
  out.p999_us = rs::util::percentile(all, 99.9);
  return true;
}

void append_phase(std::string& out, const char* name, const PhaseResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "  \"%s\": {\"lines\": %zu, \"requests\": %zu, "
                "\"seconds\": %.6f, "
                "\"throughput_rps\": %.1f, \"p50_us\": %.1f, "
                "\"p99_us\": %.1f, \"p999_us\": %.1f}",
                name, r.lines, r.requests, r.seconds, r.throughput(),
                r.p50_us, r.p99_us, r.p999_us);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t port = 0;
  std::size_t connections = 4;
  std::size_t request_count = 2000;
  std::size_t batch = 1;
  std::string oneshot;
  std::string json_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--port" && i + 1 < args.size()) {
      if (!parse_flag("--port", args[++i], 65535, port)) return 2;
    } else if (args[i] == "--connections" && i + 1 < args.size()) {
      if (!parse_flag("--connections", args[++i], kMaxConnections,
                      connections)) {
        return 2;
      }
    } else if (args[i] == "--requests" && i + 1 < args.size()) {
      if (!parse_flag("--requests", args[++i], kMaxRequests, request_count)) {
        return 2;
      }
    } else if (args[i] == "--batch" && i + 1 < args.size()) {
      if (!parse_flag("--batch", args[++i], rs::query::kMaxBatchRequests,
                      batch)) {
        return 2;
      }
    } else if (args[i] == "--oneshot" && i + 1 < args.size()) {
      oneshot = args[++i];
    } else if (args[i] == "--json-out" && i + 1 < args.size()) {
      json_out = args[++i];
    } else {
      return usage();
    }
  }
  if (port == 0) return usage();  // --port is required
  if (request_count < batch) {
    std::fputs("serve_loadgen: --requests must be at least --batch\n",
               stderr);
    return 2;
  }
  const auto port16 = static_cast<std::uint16_t>(port);

  if (!oneshot.empty()) {
    Connection conn;
    if (!conn.open(port16)) return die("cannot connect to 127.0.0.1:" +
                                       std::to_string(port));
    std::string response;
    if (!conn.roundtrip(oneshot, response)) return die("no response");
    std::printf("%s\n", response.c_str());
    return 0;
  }

  // MISS phase: distinct requests (cold cache).  HIT phase: a small
  // working set replayed until the same request total is reached — after
  // the first lap every answer is an LRU hit.  The workload derives from
  // the same scenario the server loaded, so the requests always hit
  // covered providers and real certificates.
  const auto scenario = rs::synth::build_paper_scenario();
  const auto& db = scenario.database();
  const auto miss_requests = build_requests(db, request_count, 1);
  const auto hot_set =
      build_requests(db, std::min<std::size_t>(64, request_count), 2);
  std::vector<std::string> hit_requests;
  hit_requests.reserve(request_count + hot_set.size());
  for (const auto& r : hot_set) hit_requests.push_back(r);  // warm lap
  while (hit_requests.size() < request_count + hot_set.size()) {
    hit_requests.push_back(hot_set[hit_requests.size() % hot_set.size()]);
  }

  // Batch mode folds every K queries into one envelope line; the per-query
  // throughput math stays comparable with singleton runs.
  const auto miss_lines =
      batch > 1 ? batch_lines(miss_requests, batch) : miss_requests;
  const auto hit_lines =
      batch > 1 ? batch_lines(hit_requests, batch) : hit_requests;

  PhaseResult miss, hit;
  if (!run_phase(port16, connections, miss_lines, batch, miss)) {
    return die("miss phase failed (server down?)");
  }
  if (!run_phase(port16, connections, hit_lines, batch, hit)) {
    return die("hit phase failed (server down?)");
  }

  // Ask the server for its own counters so the cache hit rate lands in the
  // bench record.
  std::string stats_line = "(unavailable)";
  {
    Connection conn;
    if (conn.open(port16)) {
      std::string response;
      if (conn.roundtrip("{\"op\":\"server_stats\"}", response)) {
        stats_line = response;
      }
    }
  }

  std::string out = "{\n  \"benchmark\": \"serve\",\n";
  out += "  \"connections\": " + std::to_string(connections) + ",\n";
  out += "  \"batch\": " + std::to_string(batch) + ",\n";
  append_phase(out, "miss_phase", miss);
  out += ",\n";
  append_phase(out, "hit_phase", hit);
  out += ",\n  \"hit_over_miss_p50_speedup\": ";
  char speedup[64];
  std::snprintf(speedup, sizeof speedup, "%.2f",
                hit.p50_us > 0 ? miss.p50_us / hit.p50_us : 0.0);
  out += speedup;
  out += ",\n  \"server_stats\": ";
  out += stats_line;
  out += "\n}\n";

  if (json_out.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    std::ofstream f(json_out, std::ios::binary);
    f << out;
    if (!f) return die("cannot write " + json_out);
    std::printf("wrote %s (miss %.0f rps p50 %.0fus; hit %.0f rps p50 "
                "%.0fus)\n",
                json_out.c_str(), miss.throughput(), miss.p50_us,
                hit.throughput(), hit.p50_us);
  }
  return 0;
}
