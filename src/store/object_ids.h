// A flat open-addressing map from an object's address to a uint32 value.
//
// A database holds a few hundred distinct Certificate objects behind
// hundreds of thousands of entries (snapshots share them), so the
// interner's universe scan and each membership lane ask "seen this object
// before?" once per entry.  Keyed on the address, that question is one
// multiply and, almost always, one probe.  Internal to src/store.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rs::store {

/// Address-keyed map: linear probing over a power-of-two table that is
/// kept at most half full.  Keys are never dereferenced; the caller keeps
/// each keyed object alive (so no two live keys share an address) for the
/// map's lifetime.
class ObjectIds {
 public:
  /// The value slot of non-null `key`, and whether this call inserted it
  /// (its value is then 0, for the caller to set).  The pointer is valid
  /// until the next insert.
  std::pair<std::uint32_t*, bool> insert(const void* key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == nullptr) {
        slot.key = key;
        ++size_;
        return {&slot.value, true};
      }
    }
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    const void* key = nullptr;
    std::uint32_t value = 0;
  };

  // Fibonacci hashing: the multiply carries the address's varying middle
  // bits (the low ones are alignment zeros) into the top bits kept.
  std::size_t home(const void* key) const noexcept {
    const auto bits =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key));
    return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 64 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.key == nullptr) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != nullptr) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;   // set by grow(), which the first insert calls
  unsigned shift_ = 0;     // set by grow()
  std::size_t size_ = 0;
};

}  // namespace rs::store
