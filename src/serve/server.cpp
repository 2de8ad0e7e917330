#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <utility>

#include "src/obs/span.h"
#include "src/query/request.h"
#include "src/query/response_writer.h"
#include "src/util/strings.h"

namespace rs::serve {
namespace {

constexpr int kListenBacklog = 64;
/// How often the reloader stats `watch_path` for a new mtime.
constexpr std::chrono::milliseconds kWatchInterval{200};

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

}  // namespace

void Server::count(Event event, std::uint64_t n) {
  // The rs_obs mirrors, looked up by name once per process: a lookup takes
  // the registry mutex, and handles stay valid across Registry::reset().
  static const std::array<rs::obs::Counter*, kEventCount> mirrors = [] {
    constexpr std::array<const char*, kEventCount> kNames = {
        "serve.connections", "serve.requests",   "serve.errors",
        "serve.batch_items", "serve.cache_hits", "serve.cache_misses",
        "serve.reloads",     "serve.reload_failures"};
    std::array<rs::obs::Counter*, kEventCount> counters{};
    for (std::size_t i = 0; i < kEventCount; ++i) {
      counters[i] = &rs::obs::Registry::global().counter(kNames[i]);
    }
    return counters;
  }();
  // memory-order: relaxed — monotonic counter read only by stats().
  counts_[event].fetch_add(n, std::memory_order_relaxed);
  mirrors[event]->add(n);
}

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
  if (::listen(fd, kListenBacklog) != 0) {
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

  EventLoopHooks hooks;
  hooks.respond = [this](std::string_view line) { return respond_line(line); };
  hooks.transport_error = [this](std::string_view code,
                                 std::string_view message) {
    count(kError);
    return rs::query::error_response(code, message);
  };
  hooks.on_connection = [this] { count(kConnection); };

  const std::size_t n = loop_count_for(options_.num_threads);
  loops_.clear();
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(
        std::make_unique<EventLoop>(options_.write_buffer_cap, hooks));
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
  count(kRequest);

  // Pin the published engine+epoch once for the whole line: every item of
  // a batch is answered by the same engine even when a hot swap lands
  // mid-batch, and the pinned shared_ptr keeps the old engine alive until
  // this request is done.
  const std::shared_ptr<const Published> pub = published();

  if (rs::query::looks_like_batch(line)) {
    auto items = rs::query::parse_batch_request(line);
    if (!items.ok()) {
      count(kError);
      return rs::query::error_response("bad_request", items.error());
    }
    count(kBatchItem, items.value().size());
    std::vector<std::string> responses;
    responses.reserve(items.value().size());
    for (const std::string_view item : items.value()) {
      if (rs::query::looks_like_batch(item)) {
        count(kError);
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
  auto parsed = rs::query::parse_request(line);
  if (!parsed.ok()) {
    count(kError);
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
  // The canonical form is appended after the prefix, in one buffer, which
  // the key then owns: it is hashed once, and a miss moves it into the
  // new cache entry.
  char epoch[24];
  std::string text(epoch,
                   std::to_chars(epoch, epoch + sizeof epoch, pub.epoch).ptr);
  text.push_back('|');
  rs::query::append_canonical_request(text, parsed.value());
  ResponseCache::Key key(std::move(text));
  if (auto cached = cache_.get(key)) {
    count(kCacheHit);
    return *std::move(cached);
  }
  count(kCacheMiss);

  std::string response = pub.engine->handle(parsed.value());
  if (rs::query::QueryEngine::is_error_response(response)) {
    count(kError);
  } else {
    cache_.put(std::move(key), response);
  }
  return response;
}

std::string Server::server_stats_response() const {
  const ServerStats s = stats();
  rs::query::ResponseWriter w;
  w.key("op").text("server_stats");
  w.key("status").text("ok");
  w.key("connections").number(s.connections);
  w.key("requests").number(s.requests);
  w.key("errors").number(s.errors);
  w.key("cache_hits").number(s.cache_hits);
  w.key("cache_misses").number(s.cache_misses);
  w.key("cache_entries").number(cache_.size());
  w.key("cache_capacity").number(cache_.capacity());
  w.key("cache_shards").number(cache_.shard_count());
  w.key("threads").number(loop_count_for(options_.num_threads));
  w.key("batch_items").number(s.batch_items);
  w.key("epoch").number(s.epoch);
  w.key("reloads").number(s.reloads);
  w.key("reload_failures").number(s.reload_failures);
  return w.finish();
}

std::string Server::reload_response(const Published& pub) {
  if (!options_.reload_factory) {
    count(kError);
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
  rs::query::ResponseWriter w;
  w.key("op").text("reload_index");
  w.key("status").text("ok");
  w.key("accepted").boolean(true);
  w.key("epoch").number(pub.epoch);
  return w.finish();
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
          reload_cv_.wait_for(reload_mutex_, kWatchInterval);
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
    count(kReloadFailure);
    return;
  }
  swap_engine(std::move(made).take());
  count(kReload);
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
  // memory-order: relaxed — point-in-time snapshot; fields may be mutually
  // skewed by in-flight requests, which callers of stats() accept.
  const auto load = [this](Event event) {
    return counts_[event].load(std::memory_order_relaxed);
  };
  ServerStats s;
  s.connections = load(kConnection);
  s.requests = load(kRequest);
  s.errors = load(kError);
  s.cache_hits = load(kCacheHit);
  s.cache_misses = load(kCacheMiss);
  s.batch_items = load(kBatchItem);
  s.epoch = epoch();
  s.reloads = load(kReload);
  s.reload_failures = load(kReloadFailure);
  return s;
}

}  // namespace rs::serve
