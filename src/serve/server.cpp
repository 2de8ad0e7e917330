#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>

#include "src/obs/span.h"
#include "src/query/request.h"
#include "src/util/strings.h"

namespace rs::serve {
namespace {

/// Nanosecond mtime of `path`, or -1 when it cannot be stat'ed (e.g. the
/// file is momentarily absent mid-rename).
std::int64_t watch_stamp(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         static_cast<std::int64_t>(st.st_mtim.tv_nsec);
}

std::size_t loop_count_for(std::size_t num_threads) noexcept {
  return num_threads == 0 ? 1 : num_threads;
}

/// The serve counters in the process-wide registry, looked up by name once
/// per process: a lookup takes the registry mutex, and handles stay valid
/// across Registry::reset().
struct ServeCounters {
  rs::obs::Counter& requests;
  rs::obs::Counter& errors;
  rs::obs::Counter& batch_items;
  rs::obs::Counter& cache_hits;
  rs::obs::Counter& cache_misses;
  rs::obs::Counter& connections;
  rs::obs::Counter& reloads;
  rs::obs::Counter& reload_failures;
};

const ServeCounters& serve_counters() {
  static const ServeCounters counters = [] {
    auto& registry = rs::obs::Registry::global();
    return ServeCounters{registry.counter("serve.requests"),
                         registry.counter("serve.errors"),
                         registry.counter("serve.batch_items"),
                         registry.counter("serve.cache_hits"),
                         registry.counter("serve.cache_misses"),
                         registry.counter("serve.connections"),
                         registry.counter("serve.reloads"),
                         registry.counter("serve.reload_failures")};
  }();
  return counters;
}

}  // namespace

Server::Server(std::shared_ptr<const rs::query::QueryEngine> engine,
               ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, loop_count_for(options_.num_threads)),
      published_(std::make_shared<const Published>(
          Published{std::move(engine), 0})) {}

Server::~Server() { stop(); }

rs::util::Result<std::uint16_t> Server::start() {
  using R = rs::util::Result<std::uint16_t>;
  if (running()) return R::err("server already running");

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return R::err("socket: " + rs::util::errno_message(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = rs::util::errno_message(errno);
    ::close(fd);
    return R::err("bind 127.0.0.1:" + std::to_string(options_.port) + ": " +
                  why);
  }
  if (::listen(fd, options_.backlog) != 0) {
    const std::string why = rs::util::errno_message(errno);
    ::close(fd);
    return R::err("listen: " + why);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string why = rs::util::errno_message(errno);
    ::close(fd);
    return R::err("getsockname: " + why);
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);

  EventLoopOptions loop_options;
  // Framing cap: the largest legal line is a full batch plus "\r\n".
  loop_options.max_line_bytes = rs::query::kMaxBatchBytes + 2;
  loop_options.write_buffer_cap = options_.write_buffer_cap;
  loop_options.drain_deadline = options_.drain_deadline;

  EventLoopHooks hooks;
  hooks.respond = [this](std::string_view line) { return respond_line(line); };
  hooks.transport_error = [this](std::string_view code,
                                 std::string_view message) {
    // memory-order: relaxed — monotonic counter read only by stats().
    errors_.fetch_add(1, std::memory_order_relaxed);
    serve_counters().errors.increment();
    return rs::query::error_response(code, message);
  };
  hooks.on_connection = [this] {
    // memory-order: relaxed — monotonic counter read only by stats().
    connections_.fetch_add(1, std::memory_order_relaxed);
    serve_counters().connections.increment();
  };

  const std::size_t n = loop_count_for(options_.num_threads);
  loops_.clear();
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(loop_options, hooks));
  }
  std::vector<EventLoop*> ring;
  ring.reserve(n);
  for (const auto& loop : loops_) ring.push_back(loop.get());
  loops_[0]->set_peers(std::move(ring));
  loops_[0]->set_listen_fd(listen_fd_);

  for (std::size_t i = 0; i < n; ++i) {
    if (!loops_[i]->start()) {
      for (std::size_t j = 0; j < i; ++j) loops_[j]->request_drain();
      for (std::size_t j = 0; j < i; ++j) loops_[j]->join();
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      port_ = 0;
      return R::err("event loop " + std::to_string(i) +
                    " failed to start (epoll/pipe limit?)");
    }
  }

  if (options_.reload_factory) {
    if (!options_.watch_path.empty()) {
      watch_mtime_ = watch_stamp(options_.watch_path);
    }
    reload_thread_ = std::thread([this] { reload_loop(); });
  }
  running_.store(true, std::memory_order_release);
  return port_;
}

void Server::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;

  // Loop 0 first: it owns the accept path, so once it has drained and
  // exited no new fd can be handed to a peer — draining peers before the
  // acceptor would race a handoff against the peer's exit.
  loops_[0]->request_drain();
  loops_[0]->join();
  for (std::size_t i = 1; i < loops_.size(); ++i) loops_[i]->request_drain();
  for (std::size_t i = 1; i < loops_.size(); ++i) loops_[i]->join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  if (reload_thread_.joinable()) {
    {
      const rs::util::MutexLock lock(reload_mutex_);
      reload_stop_ = true;
      reload_cv_.notify_all();
    }
    reload_thread_.join();
  }
}

std::string Server::respond_line(std::string_view line) {
  rs::obs::Span span("serve/request");
  const ServeCounters& counters = serve_counters();
  // memory-order: relaxed — monotonic counters read only by stats().
  requests_.fetch_add(1, std::memory_order_relaxed);
  counters.requests.increment();

  // Pin the published engine+epoch once for the whole line: every item of
  // a batch is answered by the same engine even when a hot swap lands
  // mid-batch, and the pinned shared_ptr keeps the old engine alive until
  // this request is done.
  const std::shared_ptr<const Published> pub = published();

  if (rs::query::looks_like_batch(line)) {
    auto items = rs::query::parse_batch_request(line);
    if (!items.ok()) {
      // memory-order: relaxed — monotonic counter read only by stats().
      errors_.fetch_add(1, std::memory_order_relaxed);
      counters.errors.increment();
      return rs::query::error_response("bad_request", items.error());
    }
    // memory-order: relaxed — monotonic counter read only by stats().
    batch_items_.fetch_add(items.value().size(), std::memory_order_relaxed);
    counters.batch_items.add(items.value().size());
    std::vector<std::string> responses;
    responses.reserve(items.value().size());
    for (const std::string_view item : items.value()) {
      if (rs::query::looks_like_batch(item)) {
        // memory-order: relaxed — monotonic counter read only by stats().
        errors_.fetch_add(1, std::memory_order_relaxed);
        counters.errors.increment();
        responses.push_back(rs::query::error_response(
            "bad_request", "batch requests may not nest"));
      } else {
        responses.push_back(respond_single(*pub, item));
      }
    }
    span.set_items(items.value().size());
    return rs::query::batch_response(responses);
  }
  return respond_single(*pub, line);
}

std::string Server::respond_single(const Published& pub,
                                   std::string_view line) {
  const ServeCounters& counters = serve_counters();
  auto parsed = rs::query::parse_request(line);
  if (!parsed.ok()) {
    // memory-order: relaxed — monotonic counter read only by stats().
    errors_.fetch_add(1, std::memory_order_relaxed);
    counters.errors.increment();
    return rs::query::error_response("bad_request", parsed.error());
  }
  if (parsed.value().op == rs::query::Op::kServerStats) {
    return server_stats_response();
  }
  if (parsed.value().op == rs::query::Op::kReloadIndex) {
    return reload_response(pub);
  }

  // Epoch-prefixed key: an entry cached under a replaced engine can never
  // be served after a flip; dead-epoch keys age out of the LRU naturally.
  // The canonical form is appended after the prefix, in one buffer.
  char epoch[24];
  std::string key(epoch,
                  std::to_chars(epoch, epoch + sizeof epoch, pub.epoch).ptr);
  key.push_back('|');
  rs::query::append_canonical_request(key, parsed.value());
  if (auto cached = cache_.get(key)) {
    counters.cache_hits.increment();
    return *std::move(cached);
  }
  counters.cache_misses.increment();

  std::string response = pub.engine->handle(parsed.value());
  if (rs::query::QueryEngine::is_error_response(response)) {
    // memory-order: relaxed — monotonic counter read only by stats().
    errors_.fetch_add(1, std::memory_order_relaxed);
    counters.errors.increment();
  } else {
    cache_.put(key, response);
  }
  return response;
}

std::string Server::server_stats_response() const {
  const ServerStats s = stats();
  std::string out = "{\"op\":\"server_stats\",\"status\":\"ok\"";
  const auto field = [&out](const char* key, std::uint64_t value) {
    out.push_back(',');
    out.push_back('"');
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  field("connections", s.connections);
  field("requests", s.requests);
  field("errors", s.errors);
  field("cache_hits", s.cache_hits);
  field("cache_misses", s.cache_misses);
  field("cache_entries", cache_.size());
  field("cache_capacity", cache_.capacity());
  field("cache_shards", cache_.shard_count());
  field("threads", loop_count_for(options_.num_threads));
  field("batch_items", s.batch_items);
  field("epoch", s.epoch);
  field("reloads", s.reloads);
  field("reload_failures", s.reload_failures);
  out.push_back('}');
  return out;
}

std::string Server::reload_response(const Published& pub) {
  if (!options_.reload_factory) {
    // memory-order: relaxed — monotonic counter read only by stats().
    errors_.fetch_add(1, std::memory_order_relaxed);
    serve_counters().errors.increment();
    return rs::query::error_response(
        "reload_unavailable",
        "server was started without a reloadable index source");
  }
  {
    const rs::util::MutexLock lock(reload_mutex_);
    ++reload_pending_;
    reload_cv_.notify_all();
  }
  // The flip is asynchronous (the reloader thread loads the index off the
  // event loops); `epoch` is the one this request pinned — clients poll
  // server_stats to observe the flip.
  return "{\"op\":\"reload_index\",\"status\":\"ok\",\"accepted\":true,"
         "\"epoch\":" +
         std::to_string(pub.epoch) + "}";
}

void Server::reload_loop() {
  while (true) {
    std::uint64_t take = 0;
    {
      const rs::util::MutexLock lock(reload_mutex_);
      if (reload_stop_) return;
      if (reload_pending_ == 0) {
        if (options_.watch_path.empty()) {
          reload_cv_.wait(reload_mutex_);
        } else {
          reload_cv_.wait_for(reload_mutex_, options_.watch_interval);
        }
      }
      if (reload_stop_) return;
      take = reload_pending_;
      reload_pending_ = 0;
    }
    if (take > 0) {
      run_reload();
    } else if (!options_.watch_path.empty()) {
      const std::int64_t stamp = watch_stamp(options_.watch_path);
      if (stamp >= 0 && stamp != watch_mtime_) {
        watch_mtime_ = stamp;
        run_reload();
      }
    }
  }
}

void Server::run_reload() {
  auto made = options_.reload_factory();
  if (!made.ok() || made.value() == nullptr) {
    // Keep serving the current epoch: a broken index on disk must never
    // take down a healthy server.
    // memory-order: relaxed — monotonic counter read only by stats().
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    serve_counters().reload_failures.increment();
    return;
  }
  swap_engine(std::move(made).take());
  // memory-order: relaxed — monotonic counter read only by stats().
  reloads_.fetch_add(1, std::memory_order_relaxed);
  serve_counters().reloads.increment();
}

std::shared_ptr<const Server::Published> Server::published() const {
  const rs::util::MutexLock lock(published_mutex_);
  return published_;
}

void Server::swap_engine(
    std::shared_ptr<const rs::query::QueryEngine> engine) {
  std::shared_ptr<const Published> old;
  {
    const rs::util::MutexLock lock(published_mutex_);
    old = published_;
    published_ = std::make_shared<const Published>(
        Published{std::move(engine), old->epoch + 1});
  }
  // `old` drops here, outside the lock: when no request still pins it,
  // the replaced engine is freed without blocking readers.
}

std::uint64_t Server::epoch() const { return published()->epoch; }

ServerStats Server::stats() const {
  ServerStats s;
  // memory-order: relaxed — point-in-time snapshot; fields may be mutually
  // skewed by in-flight requests, which callers of stats() accept.
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.batch_items = batch_items_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  s.epoch = epoch();
  const LruCache::Counters c = cache_.counters();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  return s;
}

}  // namespace rs::serve
