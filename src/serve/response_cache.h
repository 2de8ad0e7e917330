// The serve layer's response cache: canonical request -> response bytes,
// split into next_pow2(loops) independently locked LRU shards.
//
// The server keys on epoch-prefixed canonical_request() output, so two
// requests that mean the same thing (field order, default scope, hex case)
// share one entry.  Capacity is a total entry count split evenly across
// the shards and rounded up, so the usable total is never below the
// requested one; an insert into a full shard evicts that shard's
// least-recently-used entry, and a put of a present key refreshes its
// value and recency.  Capacity 0 disables caching: get always misses, put
// is a no-op.
//
// Sharding: two event-loop workers answering different requests touch
// different shards and never contend on one lock.  A key routes by
// FNV-1a-64 masked by the power-of-two shard count, fixed here rather than
// std::hash so the routing, and so which entries a full shard evicts, is
// the same on every standard library (`server_stats` reports the effect;
// WireGolden pins it).
//
// One hash per key: a Key carries its FNV-1a value beside its text, so a
// miss (a get, then a put) hashes once and the shard's index reuses that
// value, comparing key text only between equal hashes.  Each entry owns
// the one copy of its key; the index holds a view of it.
//
// Counters: each get() and put() touches exactly one shard under that
// shard's mutex, so the summed per-shard counters are exact totals: hits
// plus misses always equals the number of get() calls.  Entries are
// immutable response strings, so a hit copies the value out under the
// lock and the caller works lock-free from there.
//
// Concurrency: every shard field is RS_GUARDED_BY its shard's mutex,
// proven by -Wthread-safety (docs/STATIC_ANALYSIS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rs::serve {

/// Smallest power of two >= n (n = 0 or 1 both give 1).
constexpr std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

class ResponseCache {
 public:
  /// A key with its FNV-1a-64 hash, taken once when the key is made: the
  /// get() and the put() of one miss both reuse it.
  class Key {
   public:
    explicit Key(std::string text) noexcept;

   private:
    friend class ResponseCache;
    std::string text_;
    std::uint64_t hash_;
  };

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` is the total entry budget, split over next_pow2(shard_hint)
  /// shards of ceil(capacity / shards) entries each.
  ResponseCache(std::size_t capacity, std::size_t shard_hint);

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// Returns the cached response and marks the entry most-recently-used.
  [[nodiscard]] std::optional<std::string> get(const Key& key);

  /// Inserts or refreshes, moving the key's text into a new entry; evicts
  /// the shard's LRU entry when the shard is over its capacity.
  void put(Key key, std::string value);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Counters counters() const;

  /// The shard `key` routes to: exposed so tests can pin the routing.
  [[nodiscard]] std::size_t shard_of(std::string_view key) const noexcept;

 private:
  struct Entry {
    std::string key;
    std::uint64_t hash;  // of `key`, kept so an eviction need not rehash
    std::string value;
  };
  using Order = std::list<Entry>;  // front = most recently used

  /// The index's key: a view of an entry's key text and that key's hash.
  struct Ref {
    std::string_view text;
    std::uint64_t hash;
    bool operator==(const Ref& other) const noexcept {
      return hash == other.hash && text == other.text;
    }
  };
  // The high half: routing fixed the low bits, which one shard's keys all
  // share, and FNV-1a mixes its high bits best.
  struct RefHash {
    std::size_t operator()(const Ref& ref) const noexcept {
      return static_cast<std::size_t>(ref.hash >> 32);
    }
  };

  struct Shard {
    mutable rs::util::Mutex mutex;
    Order order RS_GUARDED_BY(mutex);
    std::unordered_map<Ref, Order::iterator, RefHash> index
        RS_GUARDED_BY(mutex);
    Counters counters RS_GUARDED_BY(mutex);
  };

  /// The shard a key of FNV-1a value `hash` routes to.
  std::size_t route(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash) & (shards_.size() - 1);
  }

  // Sized once at construction (Shard holds a Mutex and cannot move).
  std::vector<Shard> shards_;
  const std::size_t capacity_;
  const std::size_t per_shard_;
};

}  // namespace rs::serve
