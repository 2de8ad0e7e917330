#include "src/util/strings.h"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace rs::util {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t pos = text.find('\n', start);
    std::size_t end = pos == std::string_view::npos ? text.size() : pos;
    if (end > start && text[end - 1] == '\r') --end;
    out.push_back(text.substr(start, end - start));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split_ws(std::string_view text) {
  std::vector<std::string_view> out;
  split_ws(text, out);
  return out;
}

void split_ws(std::string_view text, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) out.push_back(text.substr(start, i - start));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), lower);
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](char x, char y) { return lower(x) == lower(y); });
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

std::optional<std::size_t> parse_count(std::string_view text,
                                       std::size_t max) {
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

std::string errno_message(int errnum) {
  char buf[256];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU strerror_r returns a char* that may point at a static immutable
  // string instead of filling buf.
  return strerror_r(errnum, buf, sizeof buf);
#else
  if (strerror_r(errnum, buf, sizeof buf) != 0) {
    return "errno " + std::to_string(errnum);
  }
  return buf;
#endif
}

}  // namespace rs::util
