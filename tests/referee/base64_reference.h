// The reference Base64 codec: rs::encoding's encoder and decoder as the
// library ran them before the decoder read straight from the text into an
// exactly sized buffer (src/encoding/base64.cpp).  The decoder copies every
// non-whitespace byte into a compacted string (failing at the first
// whitespace byte in strict mode), then decodes it one four-character group
// at a time, pushing each output byte; the encoder pushes one character at
// a time.  The library must agree with it on every input, in both
// whitespace modes: the same accept or reject, the same bytes
// (fuzz/fuzz_base64.cpp, tests/encoding/base64_test.cpp).  Header-only,
// included from the repo root.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/strings.h"

namespace rs::referee::base64 {

inline constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

inline constexpr std::array<std::int8_t, 256> make_reverse() {
  std::array<std::int8_t, 256> rev{};
  for (auto& v : rev) v = -1;
  for (int i = 0; i < 64; ++i) {
    rev[static_cast<unsigned char>(kAlphabet[i])] = static_cast<std::int8_t>(i);
  }
  return rev;
}
inline constexpr auto kReverse = make_reverse();

inline std::string encode(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= data.size(); i += 3) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            data[i + 2];
    out.push_back(kAlphabet[(n >> 18) & 63]);
    out.push_back(kAlphabet[(n >> 12) & 63]);
    out.push_back(kAlphabet[(n >> 6) & 63]);
    out.push_back(kAlphabet[n & 63]);
  }
  const std::size_t rem = data.size() - i;
  if (rem == 1) {
    const std::uint32_t n = static_cast<std::uint32_t>(data[i]) << 16;
    out.push_back(kAlphabet[(n >> 18) & 63]);
    out.push_back(kAlphabet[(n >> 12) & 63]);
    out.push_back('=');
    out.push_back('=');
  } else if (rem == 2) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8);
    out.push_back(kAlphabet[(n >> 18) & 63]);
    out.push_back(kAlphabet[(n >> 12) & 63]);
    out.push_back(kAlphabet[(n >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

inline std::optional<std::vector<std::uint8_t>> decode(
    std::string_view text, bool allow_whitespace) {
  std::string compact;
  compact.reserve(text.size());
  for (char c : text) {
    if (rs::util::is_space(c)) {
      if (!allow_whitespace) return std::nullopt;
      continue;
    }
    compact.push_back(c);
  }
  if (compact.size() % 4 != 0) return std::nullopt;

  std::vector<std::uint8_t> out;
  out.reserve(compact.size() / 4 * 3);
  for (std::size_t i = 0; i < compact.size(); i += 4) {
    int pad = 0;
    std::uint32_t n = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const char c = compact[i + j];
      if (c == '=') {
        // '=' is legal only in the last group's final one or two slots.
        if (i + 4 != compact.size() || j < 2) return std::nullopt;
        if (j == 2 && compact[i + 3] != '=') return std::nullopt;
        ++pad;
        n <<= 6;
        continue;
      }
      if (pad > 0) return std::nullopt;  // data after '='
      const std::int8_t v = kReverse[static_cast<unsigned char>(c)];
      if (v < 0) return std::nullopt;
      n = (n << 6) | static_cast<std::uint32_t>(v);
    }
    // Reject non-canonical encodings whose discarded bits are non-zero.
    if (pad == 1 && (n & 0xFF) != 0) return std::nullopt;
    if (pad == 2 && (n & 0xFFFF) != 0) return std::nullopt;

    out.push_back(static_cast<std::uint8_t>((n >> 16) & 0xFF));
    if (pad < 2) out.push_back(static_cast<std::uint8_t>((n >> 8) & 0xFF));
    if (pad < 1) out.push_back(static_cast<std::uint8_t>(n & 0xFF));
  }
  return out;
}

}  // namespace rs::referee::base64
