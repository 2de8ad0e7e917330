// `rootstore serve`: the event-driven loopback TCP server over QueryEngine.
//
// Protocol (docs/SERVING.md): newline-delimited JSON.  Each client sends
// one request object per line and receives exactly one response line, in
// order, over a persistent connection.  Responses are byte-identical to
// QueryEngine::handle_json() on the same line — the engine is the single
// handler, the server only adds transport, caching, batching fan-out, and
// counters.  A `{"op":"batch","requests":[...]}` line is one transport
// line fanning out to up to query::kMaxBatchRequests engine calls whose
// responses come back in one envelope.
//
// Architecture:
//   * A fixed pool of `num_threads` EventLoop workers, each owning its own
//     epoll fd.  Loop 0 additionally owns the nonblocking listening socket
//     (bound to 127.0.0.1 only) and round-robins accepted fds across all
//     loops via the handoff ring — one accept point, no thundering herd.
//   * Connections are nonblocking and edge-triggered with per-connection
//     read/write buffers; a connection whose pending responses exceed
//     `write_buffer_cap` stops being read until the peer drains it
//     (backpressure via TCP flow control).
//   * A ResponseCache (next_pow2(num_threads) shards) keyed on
//     epoch-prefixed canonical_request() fronts the engine, so loops
//     answering different requests never contend on one cache lock.
//
// Hot swap (RCU): the engine is published as a
// `std::shared_ptr<const Published>` guarded by a Mutex, where Published
// bundles {engine, epoch}.  A request copies that pointer once, under the
// lock, at dispatch and uses it for the whole line (every item of a batch
// included), so a swap mid-line never mixes epochs; the lock covers only
// the copy, never the request's work.  A swap assigns a new pointer under
// the same lock.  Old engines are freed when the last in-flight request
// drops its shared_ptr.  Cache keys carry the epoch, so entries cached
// under a replaced engine can never be served after a flip.  (Not an
// atomic shared_ptr: libstdc++ 12's load releases its lock bit with a
// relaxed store, so a later compare_exchange is unordered after the read,
// a race ThreadSanitizer reports; tools/check_concurrency.sh rule R6 bans
// it.)
// Swaps come from the `reload_index` admin op or `--watch-index` polling;
// both run options_.reload_factory on the dedicated reloader thread —
// never on an event loop — so serving latency is unaffected by index
// loading.
//
// Graceful drain: stop() drains loop 0 first (no more accepts or
// handoffs), then the peers; every fully received request line is
// answered before its connection closes, bounded by a 5 s deadline.
// SIGINT handling lives in the CLI (tools/rootstore.cpp), which calls
// stop() from the main thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/query/engine.h"
#include "src/serve/event_loop.h"
#include "src/serve/response_cache.h"
#include "src/util/mutex.h"
#include "src/util/result.h"
#include "src/util/thread_annotations.h"

namespace rs::serve {

struct ServerOptions {
  std::uint16_t port = 0;          // 0 = kernel-assigned ephemeral port
  std::size_t num_threads = 4;     // event-loop workers (0 → 1)
  std::size_t cache_capacity = 1024;  // total LRU entries; 0 disables
  std::size_t write_buffer_cap = 262144;  // per-conn backpressure threshold
  /// Loads a fresh engine for a hot swap; invoked on the reloader thread
  /// only.  Unset → `reload_index` answers `reload_unavailable`.
  std::function<rs::util::Result<std::shared_ptr<const rs::query::QueryEngine>>()>
      reload_factory;
  /// When nonempty, the reloader thread polls this file's mtime every
  /// 200 ms and runs `reload_factory` on change.
  std::string watch_path;
};

/// Point-in-time serve-layer counters (also mirrored to rs_obs as
/// serve.connections / serve.requests / serve.errors / serve.batch_items /
/// serve.cache_hits / serve.cache_misses / serve.reloads /
/// serve.reload_failures when tracing is enabled).
struct ServerStats {
  std::uint64_t connections = 0;   // accepted since start
  std::uint64_t requests = 0;      // request lines answered
  std::uint64_t errors = 0;        // error responses (parse or engine)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batch_items = 0;   // individual requests inside batch lines
  std::uint64_t epoch = 0;         // current engine epoch (0 = initial)
  std::uint64_t reloads = 0;       // successful hot swaps
  std::uint64_t reload_failures = 0;
};

class Server {
 public:
  /// The server shares ownership of `engine` (hot swaps retire it only
  /// after the last in-flight request finishes).
  Server(std::shared_ptr<const rs::query::QueryEngine> engine,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event-loop pool (plus the reloader
  /// thread when configured).  Returns the bound port (useful with port 0)
  /// or a diagnostic.
  rs::util::Result<std::uint16_t> start();

  /// The bound port; 0 before a successful start().
  std::uint16_t port() const noexcept { return port_; }

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Graceful drain, idempotent: stop accepting, answer every fully
  /// received request, flush, then return (bounded by a 5 s deadline).
  void stop();

  ServerStats stats() const;

  /// Answers one request line exactly as a connection would (cache,
  /// batch, server_stats, and reload_index included).  Exposed for the
  /// serve-layer tests; callable without start().
  std::string respond_line(std::string_view line);

  /// Publishes `engine` as a new epoch (RCU flip).  In-flight requests
  /// keep the epoch they pinned at dispatch; new requests see the new
  /// one.  Thread-safe against readers and other swappers.
  void swap_engine(std::shared_ptr<const rs::query::QueryEngine> engine);

  /// The currently published epoch (starts at 0, +1 per swap).
  std::uint64_t epoch() const;

 private:
  /// One published engine+epoch pair.  Bundling them means a single
  /// pointer copy observes a consistent pair — no torn engine/epoch reads.
  struct Published {
    std::shared_ptr<const rs::query::QueryEngine> engine;
    std::uint64_t epoch = 0;
  };

  /// The serve events counted in ServerStats, one counter each.
  enum Event : std::size_t {
    kConnection,
    kRequest,
    kError,
    kBatchItem,
    kCacheHit,
    kCacheMiss,
    kReload,
    kReloadFailure,
    kEventCount
  };
  /// Counts `n` of `event`: its ServerStats field and its serve.* mirror.
  void count(Event event, std::uint64_t n = 1);

  /// The current publication, copied under published_mutex_.
  std::shared_ptr<const Published> published() const
      RS_EXCLUDES(published_mutex_);
  std::string respond_single(const Published& pub, std::string_view line);
  std::string server_stats_response() const;
  std::string reload_response(const Published& pub) RS_EXCLUDES(reload_mutex_);
  void reload_loop();
  void run_reload();

  const ServerOptions options_;
  ResponseCache cache_;
  mutable rs::util::Mutex published_mutex_;
  std::shared_ptr<const Published> published_ RS_GUARDED_BY(published_mutex_);

  // unique_ptr: EventLoop is immovable (owns a Mutex and a thread).
  std::vector<std::unique_ptr<EventLoop>> loops_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::thread reload_thread_;
  mutable rs::util::Mutex reload_mutex_;
  rs::util::CondVar reload_cv_;
  std::uint64_t reload_pending_ RS_GUARDED_BY(reload_mutex_) = 0;
  bool reload_stop_ RS_GUARDED_BY(reload_mutex_) = false;
  // Reloader-thread-only (plus start(), before the thread exists): last
  // observed nanosecond mtime of watch_path, -1 when never stat'ed.
  std::int64_t watch_mtime_ = -1;

  // memory-order: relaxed — independent monotonic counters, read only by
  // stats() snapshots that tolerate momentary skew between them.
  std::array<std::atomic<std::uint64_t>, kEventCount> counts_{};
};

}  // namespace rs::serve
