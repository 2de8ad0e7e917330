// ThreadPool unit and stress tests: scheduling, exception propagation,
// nested-use rules, oversubscription, and shutdown-while-busy.  The whole
// binary carries the `tsan` ctest label so the TSan CI stage
// (ROOTSTORE_SANITIZE=thread) replays it for data-race detection.
#include "src/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/obs/registry.h"

namespace rs::exec {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInlineOnCallingThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.submit([&] { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);

  std::vector<std::thread::id> ids(10);
  parallel_for(&pool, ids.size(),
               [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, OneWorkerParallelForRunsInlineOnCallingThread) {
  // A lone worker would run the indices one after another while the caller
  // waits, so parallel_for runs them on the caller instead, in ascending
  // order, and submits nothing: exec.pool_tasks stays 0.
  auto& registry = rs::obs::Registry::global();
  registry.reset();
  registry.enable();
  std::vector<std::thread::id> ids;
  std::vector<std::size_t> order;
  {
    ThreadPool pool(1);
    parallel_for(&pool, 10, [&](std::size_t i) {
      ids.push_back(std::this_thread::get_id());
      order.push_back(i);
    });
  }  // the destructor joins the worker, so any task it ran is counted
  registry.disable();
  const std::uint64_t tasks = registry.counter_value("exec.pool_tasks");
  registry.reset();

  ASSERT_EQ(ids.size(), 10u);
  for (const auto& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(tasks, 0u);
}

TEST(ThreadPool, NullPoolRunsInline) {
  std::size_t calls = 0;
  parallel_for(nullptr, 7, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 7u);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(&pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  std::atomic<std::size_t> index{99};
  parallel_for(&pool, 1, [&](std::size_t i) {
    ++calls;
    index = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(index.load(), 0u);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 5000;  // far more tasks than workers
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ExceptionPropagatesOutOfParallelFor) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(&pool, 100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom at 57");
                   }),
      std::runtime_error);
  // The pool survives a failed loop and keeps executing new work.
  std::atomic<int> calls{0};
  parallel_for(&pool, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, EveryTaskRunsWhenOneThrows) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::atomic<int> entered{0};
  try {
    parallel_for(&pool, kN, [&](std::size_t i) {
      ++entered;
      if (i == 0) throw std::runtime_error("index 0 fails");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // parallel_for waits for every task before rethrowing, so no task is
  // left running against destroyed stack state.
  EXPECT_EQ(entered.load(), static_cast<int>(kN));
}

TEST(ThreadPool, NestedSubmitFromWorkerThrows) {
  ThreadPool pool(2);
  std::atomic<bool> nested_rejected{false};
  parallel_for(&pool, 4, [&](std::size_t) {
    if (!pool.in_worker()) return;
    try {
      pool.submit([] {});
    } catch (const std::logic_error&) {
      nested_rejected = true;
    }
  });
  EXPECT_TRUE(nested_rejected.load());
}

TEST(ThreadPool, NestedParallelForDegradesToSerialInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  parallel_for(&pool, 8, [&](std::size_t) {
    // A nested loop on the same pool must not deadlock: it runs inline on
    // the worker that called it.
    parallel_for(&pool, 16, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPool, OversubscriptionMoreTasksThanWorkers) {
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++done;
      });
    }
  }  // destructor drains the backlog before joining
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, ShutdownWhileBusyDrainsQueuedWork) {
  std::atomic<int> done{0};
  constexpr int kTasks = 50;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++done;
      });
    }
    // Destructor runs while most tasks are still queued.
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, ParallelForUsesWorkerThreadsWhenAvailable) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(&pool, 256, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  // All execution happened off the calling thread.
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
  EXPECT_GE(ids.size(), 1u);
}

TEST(ThreadPool, ManyConcurrentLoopsFromManyThreads) {
  // Stress: several caller threads share one pool.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        parallel_for(&pool, 100, [&](std::size_t) { ++total; });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 4L * 20L * 100L);
}

}  // namespace
}  // namespace rs::exec
