#include "src/encoding/base64.h"

#include <algorithm>
#include <array>

#include "src/util/strings.h"

namespace rs::encoding {

namespace {

constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

constexpr std::array<std::int8_t, 256> make_reverse() {
  std::array<std::int8_t, 256> rev{};
  for (auto& v : rev) v = -1;
  for (int i = 0; i < 64; ++i) {
    rev[static_cast<unsigned char>(kAlphabet[i])] = static_cast<std::int8_t>(i);
  }
  return rev;
}
constexpr auto kReverse = make_reverse();

}  // namespace

void base64_encode_to(std::string& out, std::span<const std::uint8_t> data) {
  const std::size_t at = out.size();
  out.resize(at + (data.size() + 2) / 3 * 4);
  char* p = out.data() + at;
  std::size_t i = 0;
  for (; i + 3 <= data.size(); i += 3) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            data[i + 2];
    p[0] = kAlphabet[(n >> 18) & 63];
    p[1] = kAlphabet[(n >> 12) & 63];
    p[2] = kAlphabet[(n >> 6) & 63];
    p[3] = kAlphabet[n & 63];
    p += 4;
  }
  const std::size_t rem = data.size() - i;
  if (rem == 1) {
    const std::uint32_t n = static_cast<std::uint32_t>(data[i]) << 16;
    p[0] = kAlphabet[(n >> 18) & 63];
    p[1] = kAlphabet[(n >> 12) & 63];
    p[2] = '=';
    p[3] = '=';
  } else if (rem == 2) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8);
    p[0] = kAlphabet[(n >> 18) & 63];
    p[1] = kAlphabet[(n >> 12) & 63];
    p[2] = kAlphabet[(n >> 6) & 63];
    p[3] = '=';
  }
}

std::string base64_encode(std::span<const std::uint8_t> data) {
  std::string out;
  base64_encode_to(out, data);
  return out;
}

std::string base64_encode_wrapped(std::span<const std::uint8_t> data,
                                  std::size_t cols) {
  const std::string flat = base64_encode(data);
  std::string out;
  out.reserve(flat.size() + flat.size() / (cols ? cols : 1) + 1);
  for (std::size_t i = 0; i < flat.size(); i += cols) {
    out.append(flat, i, cols);
    out.push_back('\n');
  }
  return out;
}

namespace {

/// Decodes text that holds no whitespace.  Every full group is four
/// alphabet characters ('=' reads as invalid there); only the last group
/// may end in "=" or "==", and its discarded bits must be zero.
std::optional<std::vector<std::uint8_t>> decode_compact(std::string_view s) {
  if (s.size() % 4 != 0) return std::nullopt;
  if (s.empty()) return std::vector<std::uint8_t>{};
  const std::size_t pad =
      s.back() != '=' ? 0 : (s[s.size() - 2] == '=' ? 2 : 1);
  std::vector<std::uint8_t> out(s.size() / 4 * 3 - pad);
  std::uint8_t* o = out.data();
  const auto value = [](char c) {
    return static_cast<std::int32_t>(kReverse[static_cast<unsigned char>(c)]);
  };
  const std::size_t full = pad == 0 ? s.size() : s.size() - 4;
  for (std::size_t i = 0; i < full; i += 4) {
    const std::int32_t a = value(s[i]);
    const std::int32_t b = value(s[i + 1]);
    const std::int32_t c = value(s[i + 2]);
    const std::int32_t d = value(s[i + 3]);
    if ((a | b | c | d) < 0) return std::nullopt;
    const auto n = static_cast<std::uint32_t>((a << 18) | (b << 12) |
                                              (c << 6) | d);
    o[0] = static_cast<std::uint8_t>(n >> 16);
    o[1] = static_cast<std::uint8_t>(n >> 8);
    o[2] = static_cast<std::uint8_t>(n);
    o += 3;
  }
  if (pad == 0) return out;
  // The padded last group: "xx==" or "xxx=".
  const std::int32_t a = value(s[full]);
  const std::int32_t b = value(s[full + 1]);
  const std::int32_t c = pad == 1 ? value(s[full + 2]) : 0;
  if ((a | b | c) < 0) return std::nullopt;
  const auto n = static_cast<std::uint32_t>((a << 18) | (b << 12) | (c << 6));
  // Reject non-canonical encodings whose discarded bits are non-zero.
  if ((n & (pad == 1 ? 0xFFu : 0xFFFFu)) != 0) return std::nullopt;
  o[0] = static_cast<std::uint8_t>(n >> 16);
  if (pad == 1) o[1] = static_cast<std::uint8_t>(n >> 8);
  return out;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> base64_decode(
    std::string_view text, const Base64DecodeOptions& opts) {
  // Whitespace is not in the alphabet, so strict mode rejects it in
  // decode_compact; only the tolerant mode needs a compacted copy.
  if (!opts.allow_whitespace ||
      std::none_of(text.begin(), text.end(), rs::util::is_space)) {
    return decode_compact(text);
  }
  std::string compact;
  compact.reserve(text.size());
  for (const char c : text) {
    if (!rs::util::is_space(c)) compact.push_back(c);
  }
  return decode_compact(compact);
}

}  // namespace rs::encoding
