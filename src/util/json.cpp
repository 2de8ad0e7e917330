#include "src/util/json.h"

#include <cstdint>
#include <cstring>

#include "src/util/hex.h"

namespace rs::util {

namespace {

bool is_plain(char c) noexcept {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

}  // namespace

// A word needs a closer look when one of its bytes is '"', '\\' or below
// 0x20 (the zero-byte and less-than tests of "Bit Twiddling Hacks", exact
// about whether such a byte exists), and the byte loop finds which one.
std::size_t json_plain_prefix(const char* p, std::size_t n) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t backslash = w ^ (kOnes * '\\');
    const std::uint64_t stop = ((quote - kOnes) & ~quote) |
                               ((backslash - kOnes) & ~backslash) |
                               ((w - kOnes * 0x20) & ~w);
    if ((stop & kHigh) != 0) break;
  }
  while (i < n && is_plain(p[i])) ++i;
  return i;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t i = 0;
  while (true) {
    // Copy the clean run at once; stop at the next byte to escape.
    const std::size_t j = i + json_plain_prefix(s.data() + i, s.size() - i);
    out.append(s.data() + i, j - i);
    if (j == s.size()) break;
    switch (s[j]) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<std::uint8_t>(s[j]);
        out += "\\u00";
        append_hex(out, {&byte, 1});
      }
    }
    i = j + 1;
  }
  out.push_back('"');
}

}  // namespace rs::util
