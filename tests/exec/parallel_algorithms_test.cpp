// Determinism contract of the chunked parallel-for: fixed chunk plans
// that tile the range the same way for any worker count.
#include "src/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace rs::exec {
namespace {

TEST(ChunkPlan, CoversRangeExactly) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{63}, std::size_t{64}, std::size_t{65},
                        std::size_t{1000}, std::size_t{4097}}) {
    const ChunkPlan plan = plan_chunks(n);
    if (n == 0) {
      EXPECT_EQ(plan.chunk_count, 0u);
      continue;
    }
    ASSERT_GT(plan.chunk_size, 0u);
    // Chunks tile [0, n): the last chunk ends exactly at n.
    EXPECT_GE(plan.chunk_size * plan.chunk_count, n);
    EXPECT_LT(plan.chunk_size * (plan.chunk_count - 1), n);
  }
}

TEST(ChunkPlan, SmallRangesGetOneElementChunks) {
  const ChunkPlan plan = plan_chunks(10);
  EXPECT_EQ(plan.chunk_size, 1u);
  EXPECT_EQ(plan.chunk_count, 10u);
}

TEST(ForEachChunk, ChunkBoundariesMatchPlanRegardlessOfPool) {
  const std::size_t n = 1234;
  const ChunkPlan plan = plan_chunks(n);

  auto collect = [&](ThreadPool* pool) {
    std::vector<std::pair<std::size_t, std::size_t>> bounds(plan.chunk_count);
    for_each_chunk(pool, n,
                   [&](std::size_t c, std::size_t begin, std::size_t end) {
                     bounds[c] = {begin, end};
                   });
    return bounds;
  };

  const auto serial = collect(nullptr);
  ASSERT_EQ(serial.size(), plan.chunk_count);
  EXPECT_EQ(serial.front().first, 0u);
  EXPECT_EQ(serial.back().second, n);
  for (std::size_t c = 0; c + 1 < serial.size(); ++c) {
    EXPECT_EQ(serial[c].second, serial[c + 1].first);
  }

  for (std::size_t workers : {1u, 2u, 5u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(collect(&pool), serial) << workers << " workers";
  }
}

}  // namespace
}  // namespace rs::exec
