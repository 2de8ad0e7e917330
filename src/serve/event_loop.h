// One epoll-driven serve worker: the readiness loop behind `rootstore serve`.
//
// Each EventLoop owns its own epoll fd, a self-pipe for cross-thread
// wakeups, and the connections that were handed to it — there is no shared
// connection table and no per-connection thread.  Sockets are nonblocking
// and edge-triggered (EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET): reads
// drain until EAGAIN, writes flush until EAGAIN, and EPOLLOUT interest is
// registered only while a write buffer is nonempty.  The idiom follows the
// Chromium net stack's socket pumps (net/socket/).
//
// Accepting: exactly one loop (index 0 by convention) registers the
// listening socket (level-triggered) and round-robins accepted fds across
// all loops — `set_peers` wires the handoff ring, `adopt()` is the
// thread-safe entry (pending-queue + wake pipe).  This is the
// "round-robin fd handoff" alternative to SO_REUSEPORT: one accept point,
// no thundering herd, deterministic distribution.  The accepting loop
// also holds one reserve fd: when accept4 fails with EMFILE/ENFILE it
// spends the reserve to accept and close the pending connection (counted
// as serve.accept_shed), so a full fd table never turns the
// level-triggered listen fd into a busy loop.
//
// Backpressure: when a connection's pending write bytes exceed
// `write_buffer_cap`, the loop stops consuming its input (no recv, no new
// responses) until the kernel drains the socket below the cap — a slow
// reader throttles itself via TCP flow control instead of ballooning
// server memory.
//
// Framing: a line longer than the largest legal batch (kMaxBatchBytes plus
// "\r\n") with no newline in sight gets an `oversized` error, then the
// connection closes.
//
// Drain (`request_drain`): stop accepting, answer every fully received
// request line already buffered, flush, close.  Connections whose peers
// stop reading are force-closed 5 s after the drain began, so shutdown
// always terminates.
//
// Threading: all connection state is owned by the loop thread and touched
// by nothing else; the only cross-thread surface is the mutex-guarded
// pending/drain inbox plus the wake pipe (annotated below, proven by
// -Wthread-safety on clang).  The `respond` hook is called on the loop
// thread and must be thread-safe across loops (Server::respond_line is).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rs::serve {

struct EventLoopHooks {
  /// Answers one request line (no trailing newline in, none out).
  std::function<std::string(std::string_view line)> respond;
  /// Builds the transport-level error response for `code` ("oversized" or
  /// "bad_request") so the loop never depends on the response grammar.
  std::function<std::string(std::string_view code, std::string_view message)>
      transport_error;
  /// Counts one accepted connection (called on the accepting loop only).
  std::function<void()> on_connection;
};

class EventLoop {
 public:
  /// `write_buffer_cap` is the per-connection backpressure threshold.
  EventLoop(std::size_t write_buffer_cap, EventLoopHooks hooks);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Wires the round-robin handoff ring; required before start() on the
  /// loop that owns the listening socket.  `peers` may include this loop.
  void set_peers(std::vector<EventLoop*> peers);

  /// Registers the (already listening, nonblocking) socket with this loop.
  /// The fd stays owned by the caller.  Call before start().
  void set_listen_fd(int fd);

  /// Spawns the loop thread.  Returns false when epoll/pipe setup failed.
  [[nodiscard]] bool start();

  /// Hands a connected socket to this loop (thread-safe).  The loop takes
  /// ownership of the fd.
  void adopt(int fd) RS_EXCLUDES(mutex_);

  /// Asks the loop to drain and exit (thread-safe, idempotent).
  void request_drain() RS_EXCLUDES(mutex_);

  void join();

 private:
  struct Conn {
    int fd = -1;
    std::string in;               // received, not yet consumed
    std::string out;              // rendered, not yet sent
    std::size_t out_offset = 0;   // sent prefix of `out`
    bool read_ready = false;      // EPOLLIN edge seen, recv not yet EAGAIN
    bool close_after_flush = false;
    bool want_write = false;      // EPOLLOUT currently in the interest set
  };

  void run();
  void do_accept();
  bool shed_one();
  void adopt_local(int fd);
  void handle_event(int fd, std::uint32_t events);
  void pump(Conn& conn);
  void process_lines(Conn& conn);
  void flush(Conn& conn);
  void finish_or_rearm(Conn& conn);
  void close_conn(int fd);
  void begin_drain();
  void wake();
  std::size_t pending_out(const Conn& conn) const noexcept {
    return conn.out.size() - conn.out_offset;
  }

  const std::size_t write_buffer_cap_;
  const EventLoopHooks hooks_;

  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] in the epoll set, [1] written
  int listen_fd_ = -1;
  int reserve_fd_ = -1;  // spare fd spent by shed_one() (accepting loop only)
  std::vector<EventLoop*> peers_;
  std::size_t next_peer_ = 0;

  std::thread thread_;

  rs::util::Mutex mutex_;
  std::vector<int> inbox_ RS_GUARDED_BY(mutex_);  // fds awaiting adoption
  bool drain_requested_ RS_GUARDED_BY(mutex_) = false;

  // --- loop-thread-only state below (no lock: single owner) ---
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  bool draining_ = false;
  bool accept_ready_ = false;
  std::chrono::steady_clock::time_point drain_deadline_at_{};
};

}  // namespace rs::serve
