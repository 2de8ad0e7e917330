// Counter aggregation across ThreadPool workers.  Carries the `tsan`
// ctest label: the relaxed-atomic counter paths and the per-task
// queue-wait/run-time instrumentation in submit() are exactly what the
// TSan CI stage needs to watch racing.
//
// These tests use Registry::global() on purpose — the pool's task
// instrumentation is wired to the global registry — so each test restores
// the disabled default and clears its residue before finishing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/obs/clock.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"

namespace {

using rs::obs::FakeClock;
using rs::obs::Registry;

// Restores the global registry to its disabled, empty default on scope
// exit so tests cannot leak state into each other.
struct GlobalRegistryGuard {
  ~GlobalRegistryGuard() {
    Registry::global().disable();
    Registry::global().reset();
  }
};

TEST(ObsPool, TasksAndTimingsAggregateAcrossWorkers) {
  GlobalRegistryGuard guard;
  auto& reg = Registry::global();
  FakeClock clock(0, 10);
  reg.reset();
  reg.enable(&clock);

  const std::size_t kTasks = 57;
  std::atomic<std::size_t> ran{0};
  {
    rs::exec::ThreadPool pool(3);
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // pool destructor drains the queue

  reg.disable();  // FakeClock dies before the registry; stop reading it
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(reg.counter_value("exec.pool_tasks"), kTasks);
  // Every task was timestamped at enqueue, start, and finish with a
  // strictly advancing fake clock, so both aggregates must be positive.
  EXPECT_GT(reg.counter_value("exec.pool_queue_wait_ns"), 0u);
  EXPECT_GT(reg.counter_value("exec.pool_run_ns"), 0u);
}

TEST(ObsPool, ZeroWorkerPoolCountsInlineTasks) {
  GlobalRegistryGuard guard;
  auto& reg = Registry::global();
  FakeClock clock(0, 10);
  reg.reset();
  reg.enable(&clock);

  {
    rs::exec::ThreadPool pool(0);
    std::size_t ran = 0;
    pool.submit([&ran] { ++ran; });
    pool.submit([&ran] { ++ran; });
    EXPECT_EQ(ran, 2u);  // zero workers -> submit runs inline
  }

  reg.disable();
  EXPECT_EQ(reg.counter_value("exec.pool_tasks"), 2u);
}

TEST(ObsPool, CountersFromManyThreadsSumExactly) {
  GlobalRegistryGuard guard;
  auto& reg = Registry::global();
  FakeClock clock;
  reg.reset();
  reg.enable(&clock);

  // 4 threads x 10k relaxed adds on one counter: the total must be exact
  // (atomics, not data races), and TSan must see no report.
  const std::size_t kThreads = 4;
  const std::size_t kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      rs::obs::Counter& c = reg.counter("test.contended");
      for (std::size_t i = 0; i < kAddsPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();

  reg.disable();
  EXPECT_EQ(reg.counter_value("test.contended"), kThreads * kAddsPerThread);
}

TEST(ObsPool, ParallelForSpansCarryDistinctThreadIndices) {
  GlobalRegistryGuard guard;
  auto& reg = Registry::global();
  FakeClock clock(0, 1);
  reg.reset();
  reg.enable(&clock);

  {
    rs::exec::ThreadPool pool(3);
    std::vector<int> out(256, 0);
    rs::exec::parallel_for(&pool, out.size(), [&](std::size_t i) {
      rs::obs::Span span("test/task");
      out[i] = 1;
      span.set_items(1);
    });
    for (int v : out) EXPECT_EQ(v, 1);
  }

  reg.disable();
  const auto spans = reg.spans();
  ASSERT_FALSE(spans.empty());
  std::uint64_t items = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.name, "test/task");
    items += s.items;
  }
  EXPECT_EQ(items, 256u);  // every element accounted for exactly once
}

}  // namespace
