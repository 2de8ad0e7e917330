#include "src/util/hex.h"

#include <array>
#include <cstring>

#include "src/util/strings.h"

namespace rs::util {

namespace {
constexpr char kLower[] = "0123456789abcdef";
constexpr char kUpper[] = "0123456789ABCDEF";

// The two lowercase digits of every byte value, side by side.
constexpr std::array<char, 512> kLowerPairs = [] {
  std::array<char, 512> pairs{};
  for (std::size_t b = 0; b < 256; ++b) {
    pairs[2 * b] = kLower[b >> 4];
    pairs[2 * b + 1] = kLower[b & 0xF];
  }
  return pairs;
}();

int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

char* write_hex(char* dst, std::span<const std::uint8_t> bytes) noexcept {
  for (const std::uint8_t b : bytes) {
    std::memcpy(dst, &kLowerPairs[2 * std::size_t{b}], 2);
    dst += 2;
  }
  return dst;
}

void append_hex(std::string& out, std::span<const std::uint8_t> bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes.size() * 2);
  write_hex(out.data() + at, bytes);
}

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  append_hex(out, bytes);
  return out;
}

std::string hex_encode_colon(std::span<const std::uint8_t> bytes) {
  std::string out;
  if (bytes.empty()) return out;
  out.reserve(bytes.size() * 3 - 1);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0) out.push_back(':');
    out.push_back(kUpper[bytes[i] >> 4]);
    out.push_back(kUpper[bytes[i] & 0xF]);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view text) {
  std::vector<std::uint8_t> out;
  out.reserve(text.size() / 2);
  int hi = -1;
  for (char c : text) {
    if (c == ':' || is_space(c)) continue;
    const int n = nibble(c);
    if (n < 0) return std::nullopt;
    if (hi < 0) {
      hi = n;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | n));
      hi = -1;
    }
  }
  if (hi >= 0) return std::nullopt;  // dangling nibble
  return out;
}

bool hex_equals(std::string_view text, std::span<const std::uint8_t> bytes) {
  if (text.size() != bytes.size() * 2) return false;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (nibble(text[2 * i]) != bytes[i] >> 4 ||
        nibble(text[2 * i + 1]) != (bytes[i] & 0xF)) {
      return false;
    }
  }
  return true;
}

}  // namespace rs::util
