// Fixed-width byte-order loads and stores.
//
// The one set of them: the digests read and write their state words with
// these (MD5 little-endian, SHA-1 and SHA-256 big-endian), and the RSIX
// index format (src/store/persist.h) reads and writes its little-endian
// fields and its XXH64 input with them.  Each is spelled byte by byte, so
// it means the same on either host byte order, and GCC folds each into a
// single move, or a move and a bswap, at -O2.  A loop over the bytes
// instead stays one move per byte; keep them spelled out.
#pragma once

#include <cstdint>

namespace rs::util {

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(p[0]) |
         (static_cast<std::uint64_t>(p[1]) << 8) |
         (static_cast<std::uint64_t>(p[2]) << 16) |
         (static_cast<std::uint64_t>(p[3]) << 24) |
         (static_cast<std::uint64_t>(p[4]) << 32) |
         (static_cast<std::uint64_t>(p[5]) << 40) |
         (static_cast<std::uint64_t>(p[6]) << 48) |
         (static_cast<std::uint64_t>(p[7]) << 56);
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  p[4] = static_cast<std::uint8_t>(v >> 32);
  p[5] = static_cast<std::uint8_t>(v >> 40);
  p[6] = static_cast<std::uint8_t>(v >> 48);
  p[7] = static_cast<std::uint8_t>(v >> 56);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 56);
  p[1] = static_cast<std::uint8_t>(v >> 48);
  p[2] = static_cast<std::uint8_t>(v >> 40);
  p[3] = static_cast<std::uint8_t>(v >> 32);
  p[4] = static_cast<std::uint8_t>(v >> 24);
  p[5] = static_cast<std::uint8_t>(v >> 16);
  p[6] = static_cast<std::uint8_t>(v >> 8);
  p[7] = static_cast<std::uint8_t>(v);
}

}  // namespace rs::util
