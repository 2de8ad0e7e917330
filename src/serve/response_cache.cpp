#include "src/serve/response_cache.h"

#include <utility>

namespace rs::serve {
namespace {

std::uint64_t fnv1a(std::string_view key) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ResponseCache::Key::Key(std::string text) noexcept
    : text_(std::move(text)), hash_(fnv1a(text_)) {}

ResponseCache::ResponseCache(std::size_t capacity, std::size_t shard_hint)
    : shards_(next_pow2(shard_hint)),
      capacity_(capacity),
      per_shard_((capacity + shards_.size() - 1) / shards_.size()) {}

std::size_t ResponseCache::shard_of(std::string_view key) const noexcept {
  return route(fnv1a(key));
}

std::optional<std::string> ResponseCache::get(const Key& key) {
  Shard& shard = shards_[route(key.hash_)];
  const rs::util::MutexLock lock(shard.mutex);
  const auto it = shard.index.find(Ref{key.text_, key.hash_});
  if (it == shard.index.end()) {
    ++shard.counters.misses;
    return std::nullopt;
  }
  ++shard.counters.hits;
  shard.order.splice(shard.order.begin(), shard.order, it->second);
  return it->second->value;
}

void ResponseCache::put(Key key, std::string value) {
  if (per_shard_ == 0) return;
  Shard& shard = shards_[route(key.hash_)];
  const rs::util::MutexLock lock(shard.mutex);
  const auto it = shard.index.find(Ref{key.text_, key.hash_});
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return;
  }
  shard.order.push_front(
      Entry{std::move(key.text_), key.hash_, std::move(value)});
  const Entry& entry = shard.order.front();
  shard.index.emplace(Ref{entry.key, entry.hash}, shard.order.begin());
  if (shard.index.size() > per_shard_) {
    const Entry& lru = shard.order.back();
    shard.index.erase(Ref{lru.key, lru.hash});
    shard.order.pop_back();
    ++shard.counters.evictions;
  }
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const rs::util::MutexLock lock(shard.mutex);
    total += shard.index.size();
  }
  return total;
}

ResponseCache::Counters ResponseCache::counters() const {
  Counters total;
  for (const Shard& shard : shards_) {
    const rs::util::MutexLock lock(shard.mutex);
    total.hits += shard.counters.hits;
    total.misses += shard.counters.misses;
    total.evictions += shard.counters.evictions;
  }
  return total;
}

}  // namespace rs::serve
