// JSON string escaping shared by the query wire format and the rs_obs
// registry exports.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace rs::util {

/// Length of the longest prefix of the `n` bytes at `p` that a JSON string
/// carries as themselves: no '"', no '\\' and no byte below 0x20.  Tests
/// eight bytes at a time.  The request parser finds a value's end with it.
std::size_t json_plain_prefix(const char* p, std::size_t n) noexcept;

/// Appends `s` to `out` as a JSON string literal.  '"', '\\', '\n', '\r'
/// and '\t' get their short escapes, every other byte below 0x20 becomes
/// \u00xx in lowercase hex, and every other byte (0x7F and bytes of 0x80
/// and above included) is copied unchanged.
void append_json_string(std::string& out, std::string_view s);

}  // namespace rs::util
