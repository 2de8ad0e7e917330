// Hex codec for certificate fingerprints and DER dumps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rs::util {

/// Writes the lowercase hex encoding of `bytes` ("deadbeef"), two digits
/// per byte, at `dst` and returns the end of what it wrote.  The one
/// lowercase hex writer: append_hex and hex_encode wrap it, and a response
/// writer that sizes a whole fingerprint list at once calls it directly.
char* write_hex(char* dst, std::span<const std::uint8_t> bytes) noexcept;

/// Appends the lowercase hex encoding of `bytes` to `out`, written in
/// place; the query layer writes fingerprints into keys with it.
void append_hex(std::string& out, std::span<const std::uint8_t> bytes);

/// Lowercase hex encoding of `bytes` ("deadbeef").
std::string hex_encode(std::span<const std::uint8_t> bytes);

/// Uppercase hex with ':' separators ("DE:AD:BE:EF") — the fingerprint
/// presentation used by most root-store tooling.
std::string hex_encode_colon(std::span<const std::uint8_t> bytes);

/// Decodes a hex string (case-insensitive; ':' and is_space bytes of
/// util/strings.h ignored).  Returns nullopt on odd digit counts or
/// non-hex characters.
std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view text);

/// True when `text` is exactly the hex encoding of `bytes`: two digits per
/// byte, in either case, and nothing else.  Compares nibble by nibble and
/// builds no string.
bool hex_equals(std::string_view text, std::span<const std::uint8_t> bytes);

}  // namespace rs::util
