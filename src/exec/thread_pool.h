// Deterministic fork-join execution for the membership-table build.
//
// One production site uses the pool: MembershipTable::add builds each
// provider's lane of per-snapshot rows on its own task.  Every other
// analysis runs inline, because there a fork-join costs about what it
// saves (docs/PARALLELISM.md has the per-site measurements);
// landscape::agreement_summary keeps a pooled pair loop that only a
// benchmark drives.  This module provides the primitive: a fixed-size
// thread pool plus a chunked parallel-for whose results are identical for
// ANY worker count, including zero workers (inline serial execution).
//
// Determinism contract (see docs/PARALLELISM.md):
//   * Chunk boundaries depend only on the range length `n`, never on the
//     worker count (plan_chunks).
//   * parallel_for bodies write disjoint outputs, so scheduling order is
//     irrelevant.
//   * The serial fallback (`pool == nullptr` or zero workers) walks the
//     same chunks in the same order through the same code path.
#pragma once

#include <algorithm>
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
/// deadlocks a bounded pool, so the parallel helpers below detect it and
/// degrade to inline serial execution instead.
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

/// Fixed chunking for an n-element range.  Depends only on `n` — never on
/// the worker count — which is what makes parallel results reproducible
/// across thread configurations.
struct ChunkPlan {
  std::size_t chunk_size = 0;
  std::size_t chunk_count = 0;
};

inline ChunkPlan plan_chunks(std::size_t n) noexcept {
  // Enough chunks that a handful of workers load-balance across uneven
  // per-element cost (providers differ in snapshot count), few enough that
  // queue overhead stays negligible.
  constexpr std::size_t kTargetChunks = 64;
  ChunkPlan plan;
  if (n == 0) return plan;
  plan.chunk_size = (n + kTargetChunks - 1) / kTargetChunks;
  plan.chunk_count = (n + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

/// Runs `body(chunk_index, begin, end)` over the fixed chunks of [0, n).
/// Parallel when `pool` has workers and we are not already inside one of
/// them; inline serial (same chunks, ascending order) otherwise.  The first
/// exception thrown by a body is rethrown on the calling thread after all
/// chunks finish.
template <typename Body>
void for_each_chunk(ThreadPool* pool, std::size_t n, const Body& body) {
  const ChunkPlan plan = plan_chunks(n);
  if (plan.chunk_count == 0) return;

  const bool serial = pool == nullptr || pool->worker_count() == 0 ||
                      pool->in_worker() || plan.chunk_count == 1;
  if (serial) {
    for (std::size_t c = 0; c < plan.chunk_count; ++c) {
      const std::size_t begin = c * plan.chunk_size;
      const std::size_t end = std::min(n, begin + plan.chunk_size);
      body(c, begin, end);
    }
    return;
  }

  // Completion latch shared with the submitted tasks.  Guarded members are
  // initialized in the constructor (constructors are exempt from the
  // thread-safety analysis: no other thread can hold the lock yet).
  struct Completion {
    explicit Completion(std::size_t chunks) : remaining(chunks) {}
    rs::util::Mutex mutex;
    rs::util::CondVar done;
    std::size_t remaining RS_GUARDED_BY(mutex);
    std::exception_ptr error RS_GUARDED_BY(mutex);
  };
  Completion state(plan.chunk_count);
  for (std::size_t c = 0; c < plan.chunk_count; ++c) {
    const std::size_t begin = c * plan.chunk_size;
    const std::size_t end = std::min(n, begin + plan.chunk_size);
    pool->submit([&, c, begin, end] {
      std::exception_ptr thrown;
      try {
        body(c, begin, end);
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

/// Runs `body(i)` for every i in [0, n); see for_each_chunk for the
/// scheduling and exception contract.  Bodies must write disjoint state.
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, const Body& body) {
  for_each_chunk(pool, n,
                 [&](std::size_t /*chunk*/, std::size_t begin,
                     std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) body(i);
                 });
}

}  // namespace rs::exec
