// Small string helpers shared by the format parsers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rs::util {

// One character class for every text format the library reads, fixed to
// the C locale: <cctype>'s isspace/tolower consult the global locale, so a
// host program's setlocale() could otherwise change what a parser accepts
// (and each call costs a locale lookup, once per byte of a document).

/// True for exactly ' ', '\t', '\n', '\v', '\f' and '\r'.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Maps 'A'-'Z' to 'a'-'z'; every other byte is returned unchanged.
constexpr char lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Splits on a single-character delimiter.  Adjacent delimiters yield empty
/// fields; an empty input yields one empty field.
std::vector<std::string_view> split(std::string_view text, char delim);

/// Splits into lines, accepting "\n" and "\r\n" terminators.  A trailing
/// newline does not produce a final empty line.
std::vector<std::string_view> split_lines(std::string_view text);

/// Strips is_space bytes from both ends.
std::string_view trim(std::string_view s);

/// Tokenizes on runs of is_space bytes; never yields empty tokens.
std::vector<std::string_view> split_ws(std::string_view text);

/// split_ws into `out`, which is cleared first, so a caller tokenizing
/// many lines reuses one vector instead of allocating one per line.
void split_ws(std::string_view text, std::vector<std::string_view>& out);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Copy with every byte mapped through lower.
std::string to_lower(std::string_view s);

/// Equal after mapping both sides through lower.
bool iequals(std::string_view a, std::string_view b);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `needle` occurs in `haystack` ignoring ASCII case.
bool icontains(std::string_view haystack, std::string_view needle);

/// Reads `text` as a decimal integer in 0..max: digits only, so an empty
/// string, a sign, junk, trailing characters or a value past `max` (or past
/// size_t) give nullopt.  The command-line tools read every numeric flag
/// through it.
std::optional<std::size_t> parse_count(std::string_view text,
                                       std::size_t max);

/// Thread-safe strerror: the glibc strerror() writes into a shared static
/// buffer (clang-tidy concurrency-mt-unsafe), so concurrent code must use
/// this strerror_r-backed variant instead.
std::string errno_message(int errnum);

}  // namespace rs::util
