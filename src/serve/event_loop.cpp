#include "src/serve/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/obs/registry.h"
#include "src/query/request.h"

namespace rs::serve {
namespace {

constexpr int kMaxEvents = 64;
// Framing cap: the largest legal line is a full batch plus "\r\n".
constexpr std::size_t kMaxLineBytes = rs::query::kMaxBatchBytes + 2;
// How long a drain waits for peers to read their last responses.
constexpr std::chrono::milliseconds kDrainDeadline{5000};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

EventLoop::EventLoop(std::size_t write_buffer_cap, EventLoopHooks hooks)
    : write_buffer_cap_(write_buffer_cap), hooks_(std::move(hooks)) {}

EventLoop::~EventLoop() {
  request_drain();
  join();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  {
    const rs::util::MutexLock lock(mutex_);
    for (const int fd : inbox_) ::close(fd);
    inbox_.clear();
  }
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

void EventLoop::set_peers(std::vector<EventLoop*> peers) {
  peers_ = std::move(peers);
}

void EventLoop::set_listen_fd(int fd) { listen_fd_ = fd; }

bool EventLoop::start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return false;
  if (::pipe(wake_fds_) != 0) return false;
  if (!set_nonblocking(wake_fds_[0]) || !set_nonblocking(wake_fds_[1])) {
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: a pending wake byte re-notifies
  ev.data.fd = wake_fds_[0];
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) != 0) {
    return false;
  }
  if (listen_fd_ >= 0) {
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (reserve_fd_ < 0) return false;
    epoll_event lev{};
    lev.events = EPOLLIN;  // level-triggered: backlog re-notifies until empty
    lev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev) != 0) {
      return false;
    }
  }
  thread_ = std::thread([this] { run(); });
  return true;
}

void EventLoop::adopt(int fd) {
  {
    const rs::util::MutexLock lock(mutex_);
    inbox_.push_back(fd);
  }
  wake();
}

void EventLoop::request_drain() {
  {
    const rs::util::MutexLock lock(mutex_);
    drain_requested_ = true;
  }
  wake();
}

void EventLoop::join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::wake() {
  const char byte = 1;
  while (wake_fds_[1] >= 0) {
    const ssize_t n = ::write(wake_fds_[1], &byte, 1);
    if (n >= 0) break;                // delivered
    if (errno == EINTR) continue;
    break;                            // EAGAIN: a wake is already pending
  }
}

void EventLoop::run() {
  epoll_event events[kMaxEvents];
  while (true) {
    int timeout_ms = -1;
    if (draining_) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(drain_deadline_at_ -
                                     std::chrono::steady_clock::now());
      timeout_ms = remaining.count() > 0
                       ? static_cast<int>(remaining.count())
                       : 0;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: nothing recoverable
    }
    accept_ready_ = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fds_[0]) {
        char buf[64];
        while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
        }
      } else if (fd == listen_fd_) {
        accept_ready_ = true;
      } else {
        handle_event(fd, events[i].events);
      }
    }

    // Inbox: adopted fds and the drain request (checked every iteration so
    // a wake delivered between epoll_wait calls is never lost).
    std::vector<int> adopted;
    bool drain_now = false;
    {
      const rs::util::MutexLock lock(mutex_);
      adopted.swap(inbox_);
      drain_now = drain_requested_;
    }
    for (const int fd : adopted) adopt_local(fd);
    if (drain_now && !draining_) begin_drain();

    if (accept_ready_ && !draining_) do_accept();

    if (draining_) {
      if (std::chrono::steady_clock::now() >= drain_deadline_at_) {
        // Peers that stopped reading their responses forfeit them.
        std::vector<int> fds;
        fds.reserve(conns_.size());
        for (const auto& [fd, conn] : conns_) fds.push_back(fd);
        for (const int fd : fds) close_conn(fd);
      }
      if (conns_.empty()) return;
    }
  }
}

void EventLoop::do_accept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if ((errno == EMFILE || errno == ENFILE) && shed_one()) continue;
      return;  // EAGAIN: backlog empty; anything else: retry on next event
    }
    if (hooks_.on_connection) hooks_.on_connection();
    EventLoop* target =
        peers_.empty() ? this : peers_[next_peer_++ % peers_.size()];
    if (target == this) {
      adopt_local(fd);
    } else {
      target->adopt(fd);
    }
  }
}

// Out of descriptors: the pending connection stays in the backlog, and the
// level-triggered listen fd would wake epoll_wait again at once.  Free the
// reserve, accept that connection and close it (the peer sees EOF), then
// take the reserve back.  False when nothing could be shed.
bool EventLoop::shed_one() {
  if (reserve_fd_ < 0) return false;
  ::close(reserve_fd_);
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) ::close(fd);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  rs::obs::Registry::global().counter("serve.accept_shed").increment();
  return true;
}

void EventLoop::adopt_local(int fd) {
  if (draining_) {
    // Handed off after this loop began draining: answer nothing, close.
    ::close(fd);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  // A freshly accepted socket may already hold bytes; with EPOLLET the ADD
  // above delivers that edge, so no manual pump is needed here.
  conns_.emplace(fd, std::move(conn));
}

void EventLoop::handle_event(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // already closed this iteration
  Conn& conn = *it->second;
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    conn.read_ready = true;
  }
  if ((events & EPOLLOUT) != 0) flush(conn);
  pump(conn);
}

void EventLoop::pump(Conn& conn) {
  while (!conn.close_after_flush) {
    process_lines(conn);
    if (conn.close_after_flush) break;
    if (pending_out(conn) > write_buffer_cap_) {
      // Backpressure: before pausing, try to drain to the kernel.  Pause
      // only when the socket itself is full — then EPOLLOUT is armed and
      // guarantees this connection is pumped again; pausing after a clean
      // flush would strand buffered input with no future event.
      flush(conn);
      if (pending_out(conn) > write_buffer_cap_) break;
      continue;
    }
    if (draining_ || !conn.read_ready) break;
    char buf[16384];
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      if (conn.in.size() > kMaxLineBytes &&
          conn.in.find('\n') == std::string::npos) {
        // Unterminated flood: structured error, then close — line framing
        // cannot be trusted past this point.
        conn.out.append(hooks_.transport_error(
            "oversized", "request line exceeds " +
                             std::to_string(kMaxLineBytes) +
                             " bytes; closing connection"));
        conn.out.push_back('\n');
        conn.in.clear();
        conn.close_after_flush = true;
        break;
      }
      continue;
    }
    if (n == 0) {
      conn.read_ready = false;
      process_lines(conn);
      if (!conn.in.empty()) {
        // EOF mid-line: answer the incomplete request as malformed rather
        // than dropping it silently.
        conn.out.append(hooks_.transport_error(
            "bad_request", "connection closed mid-request (no newline)"));
        conn.out.push_back('\n');
        conn.in.clear();
      }
      conn.close_after_flush = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn.read_ready = false;
      break;
    }
    // Hard receive error: the connection is gone; forfeit pending output.
    conn.out.clear();
    conn.out_offset = 0;
    conn.close_after_flush = true;
    break;
  }
  flush(conn);
  finish_or_rearm(conn);
}

void EventLoop::process_lines(Conn& conn) {
  std::size_t start = 0;
  while (true) {
    // Backpressure check per line (not per buffer) so a pipelined burst
    // pauses exactly when the cap is crossed.  Drain ignores the cap: every
    // fully received request is answered before the connection closes.
    if (!draining_ && pending_out(conn) > write_buffer_cap_) break;
    const std::size_t nl = conn.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(conn.in.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    conn.out.append(hooks_.respond(line));
    conn.out.push_back('\n');
    start = nl + 1;
  }
  if (start > 0) conn.in.erase(0, start);
}

void EventLoop::flush(Conn& conn) {
  while (pending_out(conn) > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset, pending_out(conn),
               MSG_NOSIGNAL);
    if (n >= 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        ev.data.fd = conn.fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return;
    }
    // Peer vanished: nothing left to deliver.
    conn.out.clear();
    conn.out_offset = 0;
    conn.close_after_flush = true;
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }
}

void EventLoop::finish_or_rearm(Conn& conn) {
  if (conn.close_after_flush && pending_out(conn) == 0) {
    close_conn(conn.fd);
  }
}

void EventLoop::close_conn(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);
}

void EventLoop::begin_drain() {
  draining_ = true;
  drain_deadline_at_ = std::chrono::steady_clock::now() + kDrainDeadline;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  // Answer what is already buffered, then close.  Collect fds first:
  // pump() may erase from conns_ mid-iteration.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    process_lines(conn);
    conn.close_after_flush = true;
    flush(conn);
    finish_or_rearm(conn);
  }
}

}  // namespace rs::serve
