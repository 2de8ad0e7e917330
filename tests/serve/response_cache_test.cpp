// ResponseCache, the serve layer's sharded LRU response cache.  The suites
// are named for the behaviour they check: LruCache is the order, refresh
// and eviction of one shard; ShardedCache is routing (pinned to an FNV-1a
// referee), the capacity split and, the load-bearing property, exact
// counter aggregation under concurrent mixed hit/miss traffic (hits plus
// misses must equal the number of get() calls, always).
#include "src/serve/response_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace rs::serve {
namespace {

using Key = ResponseCache::Key;

TEST(LruCache, MissThenHit) {
  ResponseCache cache(4, 1);
  EXPECT_FALSE(cache.get(Key("a")).has_value());
  cache.put(Key("a"), "A");
  const auto hit = cache.get(Key("a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "A");
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  ResponseCache cache(2, 1);
  cache.put(Key("a"), "A");
  cache.put(Key("b"), "B");
  ASSERT_TRUE(cache.get(Key("a")).has_value());  // "a" is now most recent
  cache.put(Key("c"), "C");                      // evicts "b"
  EXPECT_FALSE(cache.get(Key("b")).has_value());
  EXPECT_TRUE(cache.get(Key("a")).has_value());
  EXPECT_TRUE(cache.get(Key("c")).has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(LruCache, PutRefreshesExistingEntry) {
  ResponseCache cache(2, 1);
  cache.put(Key("a"), "A1");
  cache.put(Key("b"), "B");
  cache.put(Key("a"), "A2");  // refresh, not insert: "a" becomes most recent
  cache.put(Key("c"), "C");   // evicts "b", the LRU
  EXPECT_EQ(cache.size(), 2u);
  const auto a = cache.get(Key("a"));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "A2");
  EXPECT_FALSE(cache.get(Key("b")).has_value());
}

TEST(LruCache, ZeroCapacityDisables) {
  ResponseCache cache(0, 1);
  cache.put(Key("a"), "A");
  EXPECT_FALSE(cache.get(Key("a")).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 0u);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(LruCache, ConcurrentMixedTrafficStaysConsistent) {
  ResponseCache cache(16, 1);
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 32);
        if (i % 3 == 0) {
          cache.put(Key(key), "v" + key);
        } else if (auto hit = cache.get(Key(key))) {
          // A hit must always carry the value that key was stored with.
          ASSERT_EQ(*hit, "v" + key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 16u);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<std::uint64_t>(kThreads) * ((kOps * 2) / 3));
}

TEST(NextPow2, RoundsUpToPowersOfTwo) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(16), 16u);
  EXPECT_EQ(next_pow2(17), 32u);
}

TEST(ShardedCache, ShardCountIsNextPow2OfHint) {
  EXPECT_EQ(ResponseCache(64, 0).shard_count(), 1u);
  EXPECT_EQ(ResponseCache(64, 1).shard_count(), 1u);
  EXPECT_EQ(ResponseCache(64, 3).shard_count(), 4u);
  EXPECT_EQ(ResponseCache(64, 6).shard_count(), 8u);
}

TEST(ShardedCache, RoutingIsStableAndInRange) {
  ResponseCache cache(64, 4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::size_t shard = cache.shard_of(key);
    EXPECT_LT(shard, cache.shard_count());
    EXPECT_EQ(shard, cache.shard_of(key)) << "routing must be deterministic";
  }
}

// FNV-1a-64 written out from its definition, as the referee for routing:
// the shard a key lands in decides which entries a full shard evicts, and
// `server_stats` reports the effect (WireGolden pins it).
std::uint64_t reference_fnv1a64(std::string_view key) {
  std::uint64_t h = 14695981039346656037ULL;  // offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

TEST(ShardedCache, RoutingMatchesFnv1aReference) {
  // Published FNV-1a-64 vectors check the referee itself.
  ASSERT_EQ(reference_fnv1a64(""), 0xcbf29ce484222325ULL);
  ASSERT_EQ(reference_fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  ASSERT_EQ(reference_fnv1a64("foobar"), 0x85944171f73967e8ULL);
  const std::vector<std::string> keys = {
      "",
      "a",
      "foobar",
      "0|{\"op\":\"stats\"}",
      "3|{\"date\":\"2019-06-01\",\"op\":\"store_at\",\"provider\":\"P\"}",
      std::string(4096, 'x'),
      std::string("\xff\x80\x00\x7f", 4),
  };
  for (const std::size_t shards : {1U, 2U, 4U, 8U}) {
    const ResponseCache cache(64, shards);
    ASSERT_EQ(cache.shard_count(), shards);
    for (const std::string& key : keys) {
      EXPECT_EQ(cache.shard_of(key),
                static_cast<std::size_t>(reference_fnv1a64(key)) &
                    (shards - 1))
          << shards << " shards, key of " << key.size() << " bytes";
    }
  }
}

TEST(ShardedCache, GetPutRoundTripAndCounters) {
  ResponseCache cache(64, 4);
  EXPECT_FALSE(cache.get(Key("a")).has_value());
  cache.put(Key("a"), "alpha");
  auto hit = cache.get(Key("a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "alpha");
  const ResponseCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.capacity(), 64u);
}

TEST(ShardedCache, ZeroCapacityNeverStores) {
  ResponseCache cache(0, 4);
  cache.put(Key("a"), "alpha");
  EXPECT_FALSE(cache.get(Key("a")).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedCache, CapacitySplitsAcrossShardsWithRoundUp) {
  // 10 entries over 4 shards → 3 per shard → 12 usable, never below 10.
  ResponseCache cache(10, 4);
  for (int i = 0; i < 100; ++i) {
    cache.put(Key("k" + std::to_string(i)), "v");
  }
  EXPECT_LE(cache.size(), 12u);
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST(ShardedCache, ConcurrentMixedTrafficCountersAreExact) {
  // 8 threads × 4000 gets with a put after every miss, over a keyspace
  // bigger than the cache so evictions churn constantly.  The aggregated
  // counters must balance exactly: hits + misses == total get() calls.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kGetsPerThread = 4000;
  constexpr std::size_t kKeyspace = 512;
  ResponseCache cache(128, kThreads);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      // Deterministic per-thread key walk (tests cannot call rand()):
      // stride by a thread-specific odd step so threads collide on keys.
      std::size_t k = t * 131;
      for (std::size_t i = 0; i < kGetsPerThread; ++i) {
        k = (k + 2 * t + 7) % kKeyspace;
        Key key("key-" + std::to_string(k));
        if (!cache.get(key).has_value()) {
          cache.put(std::move(key), "value-" + std::to_string(k));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const ResponseCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, kThreads * kGetsPerThread);
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.misses, 0u);
  EXPECT_LE(cache.size(), next_pow2(kThreads) *
                              ((128 + next_pow2(kThreads) - 1) /
                               next_pow2(kThreads)));
}

}  // namespace
}  // namespace rs::serve
