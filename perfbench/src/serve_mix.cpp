// serve_mix: the operator's path.
//
// The server is the real CLI, `rootstore serve --index <paper RSIX>
// --threads 2 --cache 1024`, spawned as a child process.  The client is
// this process's main thread: a closed loop over 2 connections with 16
// pipelined requests in flight on each.  Requests are drawn with Zipf(1.0)
// popularity from 50k distinct seeded requests over a fixed op mix; an
// untimed warm-up fills the response cache before the timed phase.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "measure.h"
#include "src/query/engine.h"
#include "src/query/index_io.h"
#include "src/serve/server.h"
#include "src/synth/user_agents.h"
#include "src/util/hex.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kCacheEntries = 1024;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kDepth = 16;  // pipelined requests per connection
constexpr std::size_t kDistinct = 50000;
constexpr std::size_t kWarmup = 20000;
// Nominal requests per second on a 4-vCPU x86 host; fixes the work per run.
constexpr double kRequestsPerSecond = 100000;
// One response in kSampleEvery (seeded) is compared with the in-process
// engine byte for byte.
constexpr std::uint64_t kSampleEvery = 128;

// --- the request set -------------------------------------------------------

enum Kind : std::uint8_t {
  kIsTrusted, kProvidersTrusting, kLineage, kStoreAt, kDiff, kVerifyChain,
  kFirstRejectedAt, kAgreementAt, kCtCoverage, kKindCount
};
constexpr std::array<const char*, kKindCount> kKindNames = {
    "is_trusted", "providers_trusting", "lineage",
    "store_at", "diff", "verify_chain",
    "first_rejected_at", "agreement_at", "ct_coverage"};

// The op mix in percent.  verify_chain and first_rejected_at share one 3%
// slot: both are drawn from the verify golden chains.
struct MixSlot {
  int weight;
  Kind kind;
};
constexpr std::array<MixSlot, 8> kMix = {{{60, kIsTrusted},
                                          {10, kProvidersTrusting},
                                          {8, kLineage},
                                          {8, kStoreAt},
                                          {8, kDiff},
                                          {3, kVerifyChain},
                                          {2, kAgreementAt},
                                          {1, kCtCoverage}}};

struct RequestSet {
  std::vector<std::string> lines;  // distinct, in popularity-rank order
  std::vector<Kind> kinds;
  std::uint64_t digest = 0;
};

struct ProviderRange {
  std::string name;
  std::int64_t first = 0;  // days since epoch, coverage widened by 180 days
  std::int64_t last = 0;
};

class RequestMaker {
 public:
  RequestMaker(const rs::query::TrustIndex& index,
               std::vector<std::string> verify_bases, std::uint64_t seed)
      : rng_(seed), verify_bases_(std::move(verify_bases)) {
    for (const auto& name : index.providers()) {
      const auto cov = index.coverage(name);
      if (!cov) continue;
      ProviderRange range{name, cov->first.days_since_epoch() - 180,
                          cov->last.days_since_epoch() + 180};
      global_first_ = providers_.empty()
                          ? range.first
                          : std::min(global_first_, range.first);
      global_last_ = std::max(global_last_, range.last);
      providers_.push_back(std::move(range));
    }
    for (const auto& digest : index.interner().digests()) {
      fps_.push_back(rs::util::hex_encode(digest));
    }
  }

  Kind draw_kind() {
    int pick = static_cast<int>(rng_.below(100));
    for (const auto& slot : kMix) {
      if (pick < slot.weight) return slot.kind;
      pick -= slot.weight;
    }
    return kIsTrusted;
  }

  // One request of `kind`; verify draws may turn into first_rejected_at.
  std::string make(Kind& kind) {
    const ProviderRange& p = providers_[rng_.below(providers_.size())];
    switch (kind) {
      case kIsTrusted:
        return "{\"op\":\"is_trusted\",\"provider\":\"" + p.name +
               "\",\"fp\":\"" + fp() + "\",\"date\":\"" + date(p) + "\"" +
               scope() + "}";
      case kProvidersTrusting:
        return "{\"op\":\"providers_trusting\",\"fp\":\"" + fp() +
               "\",\"date\":\"" + global_date() + "\"" + scope() + "}";
      case kLineage:
        return "{\"op\":\"lineage\",\"fp\":\"" + fp() + "\"" + scope() + "}";
      case kStoreAt:
        return "{\"op\":\"store_at\",\"provider\":\"" + p.name +
               "\",\"date\":\"" + date(p) + "\"" + scope() + "}";
      case kDiff:
        return "{\"op\":\"diff\",\"provider\":\"" + p.name +
               "\",\"date_a\":\"" + date(p) + "\",\"date_b\":\"" + date(p) +
               "\"" + scope() + "}";
      case kVerifyChain:
      case kFirstRejectedAt: {
        std::string line = verify_bases_[rng_.below(verify_bases_.size())];
        if (line.find("\"op\":\"verify_chain\"") != std::string::npos) {
          kind = kVerifyChain;
          replace_value(line, "date", global_date());
        } else {
          kind = kFirstRejectedAt;
          replace_value(line, "provider", p.name);
          replace_value(line, "scope", scope_name());
        }
        return line;
      }
      case kAgreementAt:
        return "{\"op\":\"agreement_at\",\"date\":\"" + global_date() +
               "\"" + scope() + "}";
      case kCtCoverage:
        return "{\"op\":\"ct_coverage\",\"provider\":\"" + p.name +
               "\",\"date\":\"" + date(p) + "\"}";
      case kKindCount:
        break;
    }
    return {};
  }

 private:
  std::string fp() { return fps_[rng_.below(fps_.size())]; }
  std::string date(const ProviderRange& p) {
    const auto span = static_cast<std::uint64_t>(p.last - p.first + 1);
    return rs::util::Date::from_days(
               p.first + static_cast<std::int64_t>(rng_.below(span)))
        .to_string();
  }
  std::string global_date() {
    return date(ProviderRange{"", global_first_, global_last_});
  }
  const char* scope_name() {
    // Mostly TLS, the paper's headline scope.
    static constexpr std::array<const char*, 4> kOther = {"email", "code",
                                                          "present", "tls"};
    return rng_.below(10) < 7 ? "tls" : kOther[rng_.below(3)];
  }
  std::string scope() {
    return std::string(",\"scope\":\"") + scope_name() + "\"";
  }
  static void replace_value(std::string& line, const std::string& key,
                            const std::string& value) {
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return;
    const std::size_t begin = at + needle.size();
    const std::size_t end = line.find('"', begin);
    line.replace(begin, end - begin, value);
  }

  Rng rng_;
  std::vector<std::string> verify_bases_;
  std::vector<ProviderRange> providers_;
  std::vector<std::string> fps_;
  std::int64_t global_first_ = 0;
  std::int64_t global_last_ = 0;
};

RequestSet make_requests(const rs::query::TrustIndex& index,
                         const std::vector<std::string>& verify_bases,
                         std::uint64_t seed) {
  RequestMaker maker(index, verify_bases, seed);
  RequestSet set;
  std::unordered_set<std::string> seen;
  while (set.lines.size() < kDistinct) {
    Kind kind = maker.draw_kind();
    // Small op spaces (lineage) saturate: retry a few times, then redraw.
    for (int attempt = 0; attempt < 16; ++attempt) {
      Kind made = kind;
      std::string line = maker.make(made);
      if (seen.insert(line).second) {
        set.digest = fnv1a(line.data(), line.size(), set.digest ^ 0x9e37);
        set.lines.push_back(std::move(line));
        set.kinds.push_back(made);
        break;
      }
    }
  }
  return set;
}

// Zipf(1.0) over ranks: rank r is drawn with probability ∝ 1/(r+1).
std::vector<std::uint32_t> zipf_sequence(std::size_t ranks, std::size_t count,
                                         std::uint64_t seed) {
  std::vector<double> cdf(ranks);
  double total = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  Rng rng(seed ^ 0x5a17f00dULL);
  std::vector<std::uint32_t> seq(count);
  for (auto& slot : seq) {
    const double u = rng.unit() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    slot = static_cast<std::uint32_t>(
        std::min<std::size_t>(ranks - 1, static_cast<std::size_t>(
                                             it - cdf.begin())));
  }
  return seq;
}

bool sampled(std::uint64_t seed, std::size_t position) {
  const std::uint64_t key[2] = {seed, static_cast<std::uint64_t>(position)};
  return fnv1a(key, sizeof key) % kSampleEvery == 0;
}

std::vector<std::string> verify_bases(const std::string& repo_root) {
  std::vector<std::string> bases;
  const std::string text =
      read_file(repo_root + "/tests/golden/verify/requests.ndjson");
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find("\"op\":\"verify_chain\"") == 1 ||
        line.find("\"op\":\"first_rejected_at\"") == 1) {
      bases.push_back(std::move(line));
    }
  }
  return bases;
}

// --- the server process ----------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { stop(); }

  // Spawns the server and waits for its "listening" line.  No --port-file:
  // the CLI fsyncs that file, and the port is on stdout anyway.
  bool start(const std::string& rootstore, const std::string& index_file,
             bool traced) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "ROOTSTORE_TRACE=", 16) != 0) env.emplace_back(*e);
    }
    if (traced) env.emplace_back("ROOTSTORE_TRACE=1");
    std::vector<char*> envp;
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    std::vector<std::string> args = {rootstore, "serve", "--index", index_file,
                                     "--threads",
                                     std::to_string(kServerThreads), "--cache",
                                     std::to_string(kCacheEntries), "--port",
                                     "0"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, rootstore.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    std::string line;
    while (true) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 60000) <= 0) return false;
      char c = 0;
      const ssize_t n = ::read(out_fd_, &c, 1);
      if (n <= 0) return false;
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      const std::string prefix = "listening 127.0.0.1:";
      if (line.rfind(prefix, 0) == 0) {
        port_ = static_cast<std::uint16_t>(
            std::strtoul(line.c_str() + prefix.size(), nullptr, 10));
        return port_ != 0;
      }
      line.clear();
    }
  }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      // Drain stdout (the "drained" summary) so the server never blocks.
      char buf[4096];
      while (out_fd_ >= 0 && ::read(out_fd_, buf, sizeof buf) > 0) {
      }
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

// --- the client ------------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_done = 0;
  std::string in;
  struct Pending {
    std::size_t position;
    std::int64_t sent_ns;
  };
  std::deque<Pending> inflight;
};

struct PhaseResult {
  std::size_t completed = 0;
  std::size_t errors = 0;           // error responses
  std::size_t transport_failed = 0; // requests lost to a broken connection
  double wall_s = 0;
  double client_cpu_s = 0;
  std::vector<double> latency_us;
  std::vector<std::int64_t> done_ns;  // completion time of each request
  std::unordered_map<std::size_t, std::string> samples;  // position → reply
};

bool flush(Conn& c) {
  while (c.out_done < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_done,
                             c.out.size() - c.out_done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    c.out_done += static_cast<std::size_t>(n);
  }
  c.out.clear();
  c.out_done = 0;
  return true;
}

// Sends positions [begin, end) of `seq` through the closed pipelined loop.
PhaseResult run_phase(std::vector<Conn>& conns, const RequestSet& set,
                      const std::vector<std::uint32_t>& seq, std::size_t begin,
                      std::size_t end, std::uint64_t seed, bool keep_samples) {
  PhaseResult r;
  r.latency_us.reserve(end - begin);
  std::size_t next = begin;
  const auto enqueue = [&](Conn& c, std::int64_t now) {
    c.out += set.lines[seq[next]];
    c.out.push_back('\n');
    c.inflight.push_back({next, now});
    ++next;
  };
  const double cpu0 = thread_cpu_s();
  const std::int64_t t0 = now_ns();
  for (auto& c : conns) {
    const std::int64_t now = now_ns();
    while (c.inflight.size() < kDepth && next < end) enqueue(c, now);
  }
  std::vector<pollfd> pfds(conns.size());
  char buf[65536];
  bool broken = false;
  while (r.completed + r.transport_failed < end - begin && !broken) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!flush(conns[i])) broken = true;
      pfds[i] = {conns[i].fd,
                 static_cast<short>(POLLIN |
                                    (conns[i].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    if (broken) break;
    if (::poll(pfds.data(), pfds.size(), 30000) <= 0) {
      broken = true;
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns[i];
      while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          broken = true;
          break;
        }
        c.in.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
      }
      const std::int64_t now = now_ns();
      std::size_t line_start = 0;
      while (true) {
        const std::size_t nl = c.in.find('\n', line_start);
        if (nl == std::string::npos || c.inflight.empty()) break;
        const Conn::Pending p = c.inflight.front();
        c.inflight.pop_front();
        r.latency_us.push_back(static_cast<double>(now - p.sent_ns) / 1e3);
        r.done_ns.push_back(now - t0);
        const std::string_view reply(c.in.data() + line_start,
                                     nl - line_start);
        if (reply.rfind("{\"status\":\"error\"", 0) == 0) ++r.errors;
        if (keep_samples && sampled(seed, p.position)) {
          r.samples.emplace(p.position, std::string(reply));
        }
        ++r.completed;
        line_start = nl + 1;
        if (next < end) enqueue(c, now);
      }
      c.in.erase(0, line_start);
    }
  }
  if (broken) {
    r.transport_failed = (end - begin) - r.completed;
  }
  r.wall_s = seconds_since(t0);
  r.client_cpu_s = thread_cpu_s() - cpu0;
  return r;
}

// One synchronous request on a quiet connection (nothing in flight).
std::string roundtrip(Conn& c, const std::string& line) {
  c.out = line + "\n";
  c.out_done = 0;
  while (!c.out.empty()) {
    if (!flush(c)) return {};
    if (!c.out.empty()) {
      pollfd pfd{c.fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
    }
  }
  char buf[4096];
  while (c.in.find('\n') == std::string::npos) {
    pollfd pfd{c.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 30000) <= 0) return {};
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n <= 0) return {};
    c.in.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t nl = c.in.find('\n');
  std::string reply = c.in.substr(0, nl);
  c.in.erase(0, nl + 1);
  return reply;
}

std::uint64_t stats_field(const std::string& reply, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(reply.c_str() + at + needle.size(), nullptr, 10);
}

struct ServerStatsDelta {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t errors = 0;
};

ServerStatsDelta stats_delta(const std::string& before,
                             const std::string& after) {
  ServerStatsDelta d;
  const auto delta = [&](const char* key) {
    return stats_field(after, key) - stats_field(before, key);
  };
  d.requests = delta("requests");
  d.hits = delta("cache_hits");
  d.misses = delta("cache_misses");
  d.errors = delta("errors");
  return d;
}

// One server lifetime: warm-up, then the timed phase over [begin, end).
struct SocketRun {
  PhaseResult phase;
  ServerStatsDelta stats;
  double server_cpu_s = 0;
  double server_peak_mb = 0;
  bool warm = false;
  bool ok = false;
};

SocketRun socket_run(ServerProcess& server, const RequestSet& set,
                     const std::vector<std::uint32_t>& seq, std::size_t begin,
                     std::size_t end, std::uint64_t seed, bool keep_samples) {
  SocketRun run;
  std::vector<Conn> conns(kConnections);
  bool connected = true;
  for (auto& c : conns) {
    c.fd = connect_loopback(server.port());
    connected = connected && c.fd >= 0;
  }
  if (connected) {
    // Untimed warm-up: until the response cache has seen enough misses to
    // be full.
    for (int round = 0; round < 4 && !run.warm; ++round) {
      run_phase(conns, set, seq, 0, kWarmup, seed, false);
      const std::string stats = roundtrip(conns[0], "{\"op\":\"server_stats\"}");
      run.warm = !stats.empty() && stats_field(stats, "cache_entries") >=
                                       stats_field(stats, "cache_capacity");
    }
    const std::string before = roundtrip(conns[0], "{\"op\":\"server_stats\"}");
    const double cpu0 = pid_cpu_s(server.pid());
    run.phase = run_phase(conns, set, seq, begin, end, seed, keep_samples);
    run.server_cpu_s = pid_cpu_s(server.pid()) - cpu0;
    const std::string after = roundtrip(conns[0], "{\"op\":\"server_stats\"}");
    run.stats = stats_delta(before, after);
    run.server_peak_mb = peak_rss_mb(server.pid());
    run.ok = !before.empty() && !after.empty();
  }
  for (auto& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return run;
}

}  // namespace

RunResult run_serve_mix(const Options& o) {
  RunResult result;
  const std::string index_file = o.work_dir + "/paper.rsix";
  auto loaded = rs::query::TrustIndexIO::load_file(index_file);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", index_file.c_str(),
                 loaded.message().c_str());
    return result;
  }
  const auto engine = std::make_shared<const rs::query::QueryEngine>(
      std::move(loaded).take(), rs::synth::user_agent_population());
  const auto bases = verify_bases(o.repo_root);
  if (bases.empty()) {
    std::fprintf(stderr, "perfbench: no verify golden chains\n");
    return result;
  }
  const RequestSet set = make_requests(engine->index(), bases, o.seed);
  const std::size_t requests =
      scaled_count(o.seconds, kRequestsPerSecond, 1000);
  // The traced run splits its socket time between an untraced and a traced
  // server, each serving half the requests.
  const std::size_t per_server = o.trace ? requests / 2 : requests;
  const std::vector<std::uint32_t> seq =
      zipf_sequence(set.lines.size(), kWarmup + requests, o.seed);
  result.note("requests_digest",
              hex64(fnv1a(seq.data(), seq.size() * sizeof(seq[0]),
                          set.digest)));
  std::array<std::size_t, kKindCount> mix_counts{};
  for (std::size_t i = kWarmup; i < seq.size(); ++i) ++mix_counts[set.kinds[seq[i]]];
  for (std::size_t k = 0; k < kKindCount; ++k) {
    result.note(std::string("mix.") + kKindNames[k],
                static_cast<double>(mix_counts[k]) /
                    static_cast<double>(requests));
  }

  // --- set-up: spawn until the port is announced, several times.
  const int setups = o.trace ? 1 : 31;
  std::vector<double> setup_s;
  ServerProcess server;
  for (int rep = 0; rep < setups; ++rep) {
    server.stop();
    const std::int64_t t0 = now_ns();
    if (!server.start(o.rootstore, index_file, false)) {
      std::fprintf(stderr, "perfbench: cannot start %s serve\n",
                   o.rootstore.c_str());
      return result;
    }
    setup_s.push_back(seconds_since(t0));
  }

  // --- timed phase.
  // Byte-compares the seeded sample of replies with the in-process engine.
  std::unordered_map<std::uint32_t, std::string> expected;
  const auto mismatches_in = [&](const PhaseResult& phase) {
    std::size_t mismatches = 0;
    for (const auto& [position, reply] : phase.samples) {
      const std::uint32_t line = seq[position];
      auto it = expected.find(line);
      if (it == expected.end()) {
        it = expected.emplace(line, engine->handle_json(set.lines[line]))
                 .first;
      }
      if (reply != it->second) ++mismatches;
    }
    return mismatches;
  };
  std::vector<SocketRun> attempts;
  std::size_t mismatches = 0;
  const auto measure = [&] {
    SocketRun run = socket_run(server, set, seq, kWarmup,
                               kWarmup + per_server, o.seed, true);
    result.attempted += per_server;
    result.failed += run.phase.errors + run.phase.transport_failed;
    if (!run.ok || !run.warm) {
      std::fprintf(stderr,
                   "perfbench: server stats unavailable or cache cold\n");
      ++result.failed;
    }
    const std::size_t wrong = mismatches_in(run.phase);
    mismatches += wrong;
    result.failed += wrong;
    Phase phase;
    phase.op_us = std::move(run.phase.latency_us);
    phase.wall_s = run.phase.wall_s;
    phase.cpu_s = run.server_cpu_s;
    attempts.push_back(std::move(run));
    return phase;
  };
  const Phase timed = steadiest_phase(!o.trace, result, measure);
  server.stop();
  const SocketRun& run = attempts[timed.attempt];
  const PhaseResult& phase = run.phase;
  const double client_share = phase.client_cpu_s / phase.wall_s;
  const double server_share = run.server_cpu_s / phase.wall_s;
  result.note("requests", static_cast<double>(per_server));
  result.note("connections", static_cast<double>(kConnections));
  result.note("depth", static_cast<double>(kDepth));
  result.note("server_threads", static_cast<double>(kServerThreads));
  result.note("sampled_compared", static_cast<double>(phase.samples.size()));
  result.note("sample_mismatches", static_cast<double>(mismatches));
  result.note("error_responses", static_cast<double>(phase.errors));
  result.note("transport_failed", static_cast<double>(phase.transport_failed));
  result.note("cache_hit_ratio",
              static_cast<double>(run.stats.hits) /
                  static_cast<double>(run.stats.hits + run.stats.misses));
  result.note("client.cpu_share", client_share);
  result.note("server.cpu_share", server_share);
  result.note("setup_reps", static_cast<double>(setups));
  // A saturated client measures itself, not the server.
  if (client_share > 0.95 && server_share < 0.95 * kServerThreads) {
    std::fprintf(stderr,
                 "perfbench: client saturated (cpu share %.2f, server %.2f)\n",
                 client_share, server_share);
    result.note("client_saturated", "true");
    result.failed = std::max<std::uint64_t>(result.failed, 1);
  }
  const double socket_p50 = percentile(timed.op_us, 50);
  const double socket_p99 = percentile(timed.op_us, 99);
  const double ops_per_s =
      static_cast<double>(phase.completed) / phase.wall_s;
  if (!o.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("wall_s", phase.wall_s, "s");
    result.add("cpu_s", run.server_cpu_s, "s");
    result.add("peak_rss_mb", run.server_peak_mb, "MiB");
    result.add("ops_per_s", ops_per_s, "1/s");
    result.add("p50_us", socket_p50, "us");
    result.note("p50_us.samples", static_cast<double>(timed.op_us.size()));
    result.note("p99_us", socket_p99);
    // Completions per second of the timed phase, in thousands: shows how
    // steady the host was while it ran.
    std::string slices;
    std::size_t count = 0;
    std::int64_t edge = 1000000000;
    for (const std::int64_t t : phase.done_ns) {
      for (; t >= edge; edge += 1000000000, count = 0) {
        slices += (slices.empty() ? "" : " ") + std::to_string(count / 1000);
      }
      ++count;
    }
    result.note("ops_per_s.slices_k", slices);
    return result;
  }

  // --- traced run: per-layer breakdown.
  Tracer tracer;
  tracer.set_enabled(true);
  result.add("serve.socket_p99_us", socket_p99, "");
  result.add("serve.cache_hit_ratio",
             static_cast<double>(run.stats.hits) /
                 static_cast<double>(run.stats.hits + run.stats.misses),
             "");
  result.add("serve.cpu_us_per_request",
             run.server_cpu_s * 1e6 / static_cast<double>(phase.completed),
             "");
  result.add("serve.errors", static_cast<double>(run.stats.errors), "");
  result.add("client.cpu_share", client_share, "");

  // Cold start of the index file, in process.
  std::vector<double> load_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    Tracer::Scope span(tracer, "query.load_file");
    auto again = rs::query::TrustIndexIO::load_file(index_file);
    load_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  result.add("query.load_file_ms", median(load_ms), "");

  // Engine cost per op, no cache: each distinct request of the first 4k
  // popularity ranks answered once through QueryEngine::handle_json.
  std::array<std::vector<double>, kKindCount> handle_us;
  const std::size_t engine_sample = std::min<std::size_t>(4000, set.lines.size());
  for (std::size_t i = 0; i < engine_sample; ++i) {
    tracer.begin_op(i + 1);
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, std::string("query.handle_json.") +
                                     kKindNames[set.kinds[i]]);
      const std::string reply = engine->handle_json(set.lines[i]);
      if (reply.empty()) ++result.failed;
    }
    handle_us[set.kinds[i]].push_back(static_cast<double>(now_ns() - t0) /
                                      1e3);
  }
  for (std::size_t k = 0; k < kKindCount; ++k) {
    result.add(std::string("query.handle_us.") + kKindNames[k],
               median(handle_us[k]), "");
  }

  // The serve layer in process: Server::respond_line (cache on) over the
  // same sequence, warm-up first.
  {
    rs::serve::ServerOptions options;
    options.num_threads = kServerThreads;
    options.cache_capacity = kCacheEntries;
    rs::serve::Server in_process(engine, options);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      (void)in_process.respond_line(set.lines[seq[i]]);
    }
    const std::size_t respond_count = std::min<std::size_t>(50000, per_server);
    std::vector<double> respond_us;
    respond_us.reserve(respond_count);
    for (std::size_t i = kWarmup; i < kWarmup + respond_count; ++i) {
      tracer.begin_op(i + 1);
      const std::int64_t t0 = now_ns();
      Tracer::Scope span(tracer, "serve.respond_line");
      (void)in_process.respond_line(set.lines[seq[i]]);
      respond_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    const double respond_p50 = percentile(respond_us, 50);
    result.add("serve.respond_us_p50", respond_p50, "");
    result.add("serve.respond_us_p99", percentile(respond_us, 99), "");
    result.add("serve.transport_us", socket_p50 - respond_p50, "");
  }

  // Tracing overhead: the same number of requests against a server whose
  // rs_obs registry is enabled (ROOTSTORE_TRACE=1).
  ServerProcess traced_server;
  if (!traced_server.start(o.rootstore, index_file, true)) {
    std::fprintf(stderr, "perfbench: cannot start traced server\n");
    ++result.failed;
  } else {
    const SocketRun traced = socket_run(traced_server, set, seq, kWarmup,
                                        kWarmup + per_server, o.seed, false);
    traced_server.stop();
    const double traced_rate = static_cast<double>(traced.phase.completed) /
                               traced.phase.wall_s;
    result.add("obs.tracing_overhead", ops_per_s / traced_rate - 1.0, "");
    result.attempted += per_server;
    result.failed += traced.phase.errors + traced.phase.transport_failed;
  }
  if (!o.trace_out.empty() && !write_chrome_trace(o.trace_out, tracer, {})) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
