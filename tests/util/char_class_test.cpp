// The one character class of the text parsers (src/util/strings.h), over
// all 256 byte values: is_space and lower follow the C locale's isspace and
// tolower, and trim, split_ws, hex_decode and base64_decode skip or reject
// exactly the is_space bytes, whatever locale the host program has set.
#include <gtest/gtest.h>

#include <clocale>
#include <optional>
#include <string>
#include <vector>

#include "src/encoding/base64.h"
#include "src/util/hex.h"
#include "src/util/strings.h"

namespace rs::util {
namespace {

// The C locale's definitions (C11 7.4.1.10, 7.4.2.1), written out.
bool c_locale_space(int byte) {
  return byte == ' ' || byte == '\t' || byte == '\n' || byte == '\v' ||
         byte == '\f' || byte == '\r';
}

int c_locale_lower(int byte) {
  return byte >= 'A' && byte <= 'Z' ? byte - 'A' + 'a' : byte;
}

char as_char(int byte) { return static_cast<char>(byte); }

TEST(CharClass, IsSpaceIsTheCLocaleSet) {
  int spaces = 0;
  for (int byte = 0; byte < 256; ++byte) {
    EXPECT_EQ(is_space(as_char(byte)), c_locale_space(byte)) << byte;
    spaces += is_space(as_char(byte)) ? 1 : 0;
  }
  EXPECT_EQ(spaces, 6);
}

TEST(CharClass, LowerMapsOnlyAsciiUppercase) {
  for (int byte = 0; byte < 256; ++byte) {
    EXPECT_EQ(static_cast<unsigned char>(lower(as_char(byte))),
              c_locale_lower(byte))
        << byte;
  }
  std::string all;
  for (int byte = 0; byte < 256; ++byte) all.push_back(as_char(byte));
  std::string expected;
  for (int byte = 0; byte < 256; ++byte) {
    expected.push_back(as_char(c_locale_lower(byte)));
  }
  EXPECT_EQ(to_lower(all), expected);
  EXPECT_TRUE(iequals(all, expected));
}

TEST(CharClass, TrimAndSplitWsSkipExactlyIsSpace) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string b(1, as_char(byte));
    const std::string padded = b + b + "x" + b + "y" + b;
    const auto tokens = split_ws(padded);
    if (c_locale_space(byte)) {
      EXPECT_EQ(trim(padded), "x" + b + "y") << byte;
      ASSERT_EQ(tokens.size(), 2u) << byte;
      EXPECT_EQ(tokens[0], "x") << byte;
      EXPECT_EQ(tokens[1], "y") << byte;
    } else {
      EXPECT_EQ(trim(padded), padded) << byte;
      ASSERT_EQ(tokens.size(), 1u) << byte;
      EXPECT_EQ(tokens[0], padded) << byte;
    }
  }
}

TEST(CharClass, HexDecodeSkipsExactlyIsSpace) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string b(1, as_char(byte));
    const auto decoded = hex_decode("a" + b + "b");
    const bool hex_digit = (byte >= '0' && byte <= '9') ||
                           (byte >= 'a' && byte <= 'f') ||
                           (byte >= 'A' && byte <= 'F');
    if (c_locale_space(byte) || byte == ':') {
      ASSERT_TRUE(decoded.has_value()) << byte;
      EXPECT_EQ(*decoded, std::vector<std::uint8_t>{0xAB}) << byte;
    } else {
      // Anything else is rejected: a non-hex byte outright, a hex digit
      // because it leaves three digits, one of them dangling.
      EXPECT_FALSE(decoded.has_value()) << byte << (hex_digit ? " hex" : "");
    }
  }
}

TEST(CharClass, HexEqualsIsAnExactCaseInsensitiveCompare) {
  const std::vector<std::uint8_t> bytes = {0x0F, 0xA0, 0x5C};
  EXPECT_TRUE(hex_equals("0fa05c", bytes));
  EXPECT_TRUE(hex_equals("0FA05C", bytes));
  EXPECT_TRUE(hex_equals("0Fa05C", bytes));
  EXPECT_TRUE(hex_equals("", {}));
  EXPECT_FALSE(hex_equals("0fa05", bytes));
  EXPECT_FALSE(hex_equals("0fa05c0", bytes));
  EXPECT_FALSE(hex_equals("0fa05d", bytes));
  EXPECT_FALSE(hex_equals("0f:a05c", bytes));
  // Every byte other than the digit itself, in either case, is unequal.
  for (int byte = 0; byte < 256; ++byte) {
    const std::string text = std::string(1, as_char(byte)) + "fa05c";
    EXPECT_EQ(hex_equals(text, bytes), byte == '0') << byte;
    const std::string last = "0fa05" + std::string(1, as_char(byte));
    EXPECT_EQ(hex_equals(last, bytes), byte == 'c' || byte == 'C') << byte;
  }
}

TEST(CharClass, Base64DecodeSkipsOrRejectsExactlyIsSpace) {
  const std::vector<std::uint8_t> abc = {'A', 'B', 'C'};
  for (int byte = 0; byte < 256; ++byte) {
    const std::string text = "QU" + std::string(1, as_char(byte)) + "JD";
    const auto strict = rs::encoding::base64_decode(text);
    const auto lenient =
        rs::encoding::base64_decode(text, {.allow_whitespace = true});
    EXPECT_FALSE(strict.has_value()) << byte;
    if (c_locale_space(byte)) {
      ASSERT_TRUE(lenient.has_value()) << byte;
      EXPECT_EQ(*lenient, abc) << byte;
    } else {
      EXPECT_FALSE(lenient.has_value()) << byte;
    }
  }
}

TEST(CharClass, ParsingIgnoresTheGlobalLocale) {
  // <cctype> consults the global locale; the class above must not.  Under
  // each locale this host offers (Latin-1 ones give bytes above 0x7F a
  // case), every answer must be the C locale's.
  std::string all;
  for (int byte = 0; byte < 256; ++byte) all.push_back(as_char(byte));
  const auto c_tokens = split_ws(all);
  const std::string c_lower = to_lower(all);
  for (const char* name :
       {"C.UTF-8", "C.utf8", "en_US.ISO-8859-1", "en_US.iso88591",
        "de_DE.ISO-8859-1", "en_US.UTF-8"}) {
    if (std::setlocale(LC_ALL, name) == nullptr) continue;
    for (int byte = 0; byte < 256; ++byte) {
      EXPECT_EQ(is_space(as_char(byte)), c_locale_space(byte))
          << name << " " << byte;
      EXPECT_EQ(static_cast<unsigned char>(lower(as_char(byte))),
                c_locale_lower(byte))
          << name << " " << byte;
    }
    EXPECT_EQ(split_ws(all), c_tokens) << name;
    EXPECT_EQ(to_lower(all), c_lower) << name;
    EXPECT_EQ(trim("\t\xA0 x \x85\v"), "\xA0 x \x85") << name;
  }
  std::setlocale(LC_ALL, "C");
}

}  // namespace
}  // namespace rs::util
