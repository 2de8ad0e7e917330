#include "src/store/id_set.h"

#include <algorithm>
#include <bit>

namespace rs::store {

namespace {

constexpr std::size_t kWordBits = 64;

inline std::size_t words_for(std::size_t universe_size) noexcept {
  return (universe_size + kWordBits - 1) / kWordBits;
}

}  // namespace

IdSet::IdSet(std::size_t universe_size) : words_(words_for(universe_size), 0) {}

IdSet::IdSet(std::size_t universe_size, const std::vector<std::uint32_t>& ids)
    : IdSet(universe_size) {
  for (const std::uint32_t id : ids) insert(id);
}

bool IdSet::contains(std::uint32_t id) const noexcept {
  const std::size_t word = id / kWordBits;
  if (word >= words_.size()) return false;
  return (words_[word] >> (id % kWordBits)) & 1;
}

std::size_t IdSet::intersection_size(const IdSet& other) const noexcept {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return count;
}

std::size_t IdSet::union_size(const IdSet& other) const noexcept {
  return count_ + other.count_ - intersection_size(other);
}

IdSet IdSet::difference(const IdSet& other) const {
  IdSet out;
  out.words_.resize(words_.size(), 0);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t w =
        i < other.words_.size() ? words_[i] & ~other.words_[i] : words_[i];
    out.words_[i] = w;
    out.count_ += static_cast<std::size_t>(std::popcount(w));
  }
  return out;
}

IdSet IdSet::intersection(const IdSet& other) const {
  IdSet out;
  const std::size_t n = std::min(words_.size(), other.words_.size());
  out.words_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = words_[i] & other.words_[i];
    out.words_[i] = w;
    out.count_ += static_cast<std::size_t>(std::popcount(w));
  }
  return out;
}

IdSet IdSet::set_union(const IdSet& other) const {
  IdSet out = *this;
  out |= other;
  return out;
}

IdSet& IdSet::operator|=(const IdSet& other) {
  if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
  std::size_t count = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (i < other.words_.size()) words_[i] |= other.words_[i];
    count += static_cast<std::size_t>(std::popcount(words_[i]));
  }
  count_ = count;
  return *this;
}

double IdSet::jaccard_distance(const IdSet& other) const noexcept {
  const std::size_t inter = intersection_size(other);
  const std::size_t uni = count_ + other.count_ - inter;
  if (uni == 0) return 0.0;  // both empty: identical
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

IdSet IdSet::from_words(std::vector<std::uint64_t> words) {
  IdSet out;
  out.words_ = std::move(words);
  for (const std::uint64_t w : out.words_) {
    out.count_ += static_cast<std::size_t>(std::popcount(w));
  }
  return out;
}

std::vector<std::uint32_t> IdSet::ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t w = words_[i];
    while (w != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(w));
      out.push_back(static_cast<std::uint32_t>(i * kWordBits) + bit);
      w &= w - 1;  // clear lowest set bit
    }
  }
  return out;
}

bool operator==(const IdSet& a, const IdSet& b) noexcept {
  if (a.count_ != b.count_) return false;
  const std::size_t n = std::min(a.words_.size(), b.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a.words_[i] != b.words_[i]) return false;
  }
  // Equal counts and equal shared prefix: any tail word must be zero.
  return true;
}

}  // namespace rs::store
