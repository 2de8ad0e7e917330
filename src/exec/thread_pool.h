// Fork-join execution for the membership-table build.
//
// One production site uses the pool: MembershipTable::add builds each
// provider's lane of per-snapshot rows on its own task.  Every other
// analysis runs inline, because there a fork-join costs about what it
// saves (docs/PARALLELISM.md has the per-site measurements).  This module
// provides the primitive: a fixed-size thread pool plus a parallel-for
// that submits one task per index, or runs inline when it has no workers
// to use (zero workers is the serial engine).
//
// Determinism contract (see docs/PARALLELISM.md): parallel_for bodies
// write disjoint outputs, so scheduling order is irrelevant and any worker
// count gives the same result.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rs::exec {

/// A fixed-size pool of worker threads consuming a shared FIFO queue.
///
/// Construction with zero threads is valid and makes `submit` run tasks
/// inline on the calling thread.  Destruction drains every task already
/// queued before joining (shutdown never drops work).  `submit` from inside
/// a worker of the same pool throws std::logic_error: nested submission
/// deadlocks a bounded pool, so parallel_for below detects it and runs
/// inline instead.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// True when called from one of this pool's worker threads.
  bool in_worker() const noexcept;

  /// Enqueues a task.  Tasks must not throw (parallel_for wraps bodies with
  /// its own exception capture); a throwing raw task terminates.  Throws
  /// std::logic_error when called from a worker of this pool.
  void submit(std::function<void()> task) RS_EXCLUDES(mutex_);

 private:
  void worker_loop() RS_EXCLUDES(mutex_);

  rs::util::Mutex mutex_;
  rs::util::CondVar cv_;
  std::deque<std::function<void()>> queue_ RS_GUARDED_BY(mutex_);
  bool stopping_ RS_GUARDED_BY(mutex_) = false;
  // Written only by the constructor and joined by the destructor; after
  // construction the vector is effectively const, so workers_ needs no lock.
  std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [0, n), one pool task per index.  Runs
/// inline, in ascending order, when `pool` is null or has zero workers,
/// when the caller is one of its workers, or when n <= 1.  Every task runs
/// even when one throws; the first exception is rethrown on the calling
/// thread after all of them finish.  Bodies must write disjoint state.
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, const Body& body) {
  if (pool == nullptr || pool->worker_count() == 0 || pool->in_worker() ||
      n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Completion latch shared with the submitted tasks.  Guarded members are
  // initialized in the constructor (constructors are exempt from the
  // thread-safety analysis: no other thread can hold the lock yet).
  struct Completion {
    explicit Completion(std::size_t tasks) : remaining(tasks) {}
    rs::util::Mutex mutex;
    rs::util::CondVar done;
    std::size_t remaining RS_GUARDED_BY(mutex);
    std::exception_ptr error RS_GUARDED_BY(mutex);
  };
  Completion state(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool->submit([&, i] {
      std::exception_ptr thrown;
      try {
        body(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      const rs::util::MutexLock lock(state.mutex);
      if (thrown && !state.error) state.error = std::move(thrown);
      if (--state.remaining == 0) state.done.notify_one();
    });
  }
  std::exception_ptr error;
  {
    rs::util::MutexLock lock(state.mutex);
    while (state.remaining != 0) state.done.wait(state.mutex);
    error = std::move(state.error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace rs::exec
