// RFC 4648 Base64 codec (standard alphabet), from scratch.
//
// Strict by default: decode rejects bad characters, bad padding, and
// non-canonical trailing bits.  A whitespace-tolerant mode supports PEM
// bodies, which wrap at 64 columns.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rs::encoding {

/// Appends the standard Base64 encoding of `data` ('=' padding, no line
/// wrapping) to `out`, written in place.  The one encoder: base64_encode
/// and base64_encode_wrapped build on it, and the query layer writes
/// certificates into canonical requests with it.
void base64_encode_to(std::string& out, std::span<const std::uint8_t> data);

/// Encodes to standard Base64 with '=' padding, no line wrapping.
std::string base64_encode(std::span<const std::uint8_t> data);

/// Encodes wrapped at `cols` characters per line ('\n' separators), as used
/// inside PEM bodies.  `cols` must be positive.
std::string base64_encode_wrapped(std::span<const std::uint8_t> data,
                                  std::size_t cols);

/// Decode options.
struct Base64DecodeOptions {
  /// Permit whitespace (rs::util::is_space) between groups (needed for
  /// PEM bodies).
  bool allow_whitespace = false;
};

/// Decodes standard Base64.  Returns nullopt on: invalid characters, length
/// not a multiple of 4 (after whitespace removal), misplaced '=', or
/// non-zero discarded bits in the final group (non-canonical encodings).
/// Decodes straight from `text` into an exactly sized buffer; a compacted
/// copy is made only when whitespace is present and allowed.
std::optional<std::vector<std::uint8_t>> base64_decode(
    std::string_view text, const Base64DecodeOptions& opts = {});

}  // namespace rs::encoding
