// The one JSON string escaper, byte by byte against its rule.
#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace rs::util {
namespace {

// The rule, written out per byte: the five short escapes, \u00xx in
// lowercase hex below 0x20, and every other byte as itself.
std::string expected_escape(unsigned char b) {
  switch (b) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (b < 0x20) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(b));
    return buf;
  }
  return std::string(1, static_cast<char>(b));
}

bool is_plain(unsigned char b) { return b != '"' && b != '\\' && b >= 0x20; }

TEST(AppendJsonString, EscapesControlBytesAndQuotes) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(AppendJsonString, EverySingleByteFollowsTheRule) {
  for (int b = 0; b < 256; ++b) {
    const auto byte = static_cast<unsigned char>(b);
    std::string out = "x";
    append_json_string(out, std::string(1, static_cast<char>(byte)));
    EXPECT_EQ(out, "x\"" + expected_escape(byte) + "\"") << "byte " << b;
  }
}

// The word test must stop exactly where the byte loop would: every byte at
// every position of a 16-byte run of plain text.
TEST(JsonPlainPrefix, StopsAtTheFirstByteToEscape) {
  for (int b = 0; b < 256; ++b) {
    const auto byte = static_cast<unsigned char>(b);
    for (std::size_t at = 0; at < 16; ++at) {
      std::string s(16, 'a');
      s[at] = static_cast<char>(byte);
      EXPECT_EQ(json_plain_prefix(s.data(), s.size()),
                is_plain(byte) ? s.size() : at)
          << "byte " << b << " at " << at;
    }
  }
  EXPECT_EQ(json_plain_prefix("", 0), 0u);
}

}  // namespace
}  // namespace rs::util
