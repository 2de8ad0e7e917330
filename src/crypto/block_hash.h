// The Merkle–Damgård framing that MD5, SHA-1 and SHA-256 share.
//
// All three absorb input in 64-byte blocks, pad the message with 0x80 and
// zeros to 56 mod 64 bytes, append the message length in bits as a 64-bit
// trailer, and emit their 32-bit state words as the digest.  They differ
// only in the state's width, the byte order of the trailer and the output
// words (MD5 little-endian, the SHAs big-endian), and the compression
// function.  BlockHash holds the buffering, padding and output once; each
// digest derives from it (CRTP), sets `state_` in its constructor and
// supplies `compress(block)`.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/util/byte_order.h"

namespace rs::crypto {

template <typename Derived, std::size_t kWords, std::endian kOrder>
class BlockHash {
 public:
  using Digest = std::array<std::uint8_t, 4 * kWords>;

  /// Absorbs `data`; may be called repeatedly.
  void update(std::span<const std::uint8_t> data) noexcept {
    // An empty span may carry data() == nullptr, and passing that to
    // memcpy is undefined behaviour even with a zero count (found by UBSan
    // via the JKS fuzz harness hashing an empty store body).
    if (data.empty()) return;
    length_ += data.size();
    std::size_t off = 0;
    if (buffered_ > 0) {
      const std::size_t take = std::min(data.size(), 64 - buffered_);
      std::memcpy(buffer_ + buffered_, data.data(), take);
      buffered_ += take;
      off = take;
      if (buffered_ == 64) {
        self().compress(buffer_);
        buffered_ = 0;
      }
    }
    while (off + 64 <= data.size()) {
      self().compress(data.data() + off);
      off += 64;
    }
    if (off < data.size()) {
      std::memcpy(buffer_, data.data() + off, data.size() - off);
      buffered_ = data.size() - off;
    }
  }

  /// Finalizes and returns the digest.  The hasher must not be used after.
  Digest finish() noexcept {
    const std::uint64_t bit_len = length_ * 8;
    // 0x80 and then zeros up to 56 mod 64 bytes: 1 to 64 bytes in all,
    // spilling into one more block when 56 or more bytes are buffered.
    static constexpr std::uint8_t kPad[64] = {0x80};
    update({kPad, 1 + (119 - buffered_) % 64});
    std::uint8_t trailer[8];
    if constexpr (kOrder == std::endian::little) {
      rs::util::store_le64(trailer, bit_len);
    } else {
      rs::util::store_be64(trailer, bit_len);
    }
    update(trailer);

    Digest out;
    for (std::size_t i = 0; i < kWords; ++i) {
      if constexpr (kOrder == std::endian::little) {
        rs::util::store_le32(out.data() + i * 4, state_[i]);
      } else {
        rs::util::store_be32(out.data() + i * 4, state_[i]);
      }
    }
    return out;
  }

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data) noexcept {
    Derived h;
    h.update(data);
    return h.finish();
  }

 protected:
  std::uint32_t state_[kWords];

 private:
  Derived& self() noexcept { return static_cast<Derived&>(*this); }

  std::uint64_t length_ = 0;  // total bytes absorbed
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

}  // namespace rs::crypto
