#include "src/util/hex.h"

#include "src/util/strings.h"

namespace rs::util {

namespace {
constexpr char kLower[] = "0123456789abcdef";
constexpr char kUpper[] = "0123456789ABCDEF";

int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kLower[b >> 4]);
    out.push_back(kLower[b & 0xF]);
  }
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
