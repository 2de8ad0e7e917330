#include "src/util/strings.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace rs::util {
namespace {

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, EmptyFields) {
  EXPECT_EQ(split(",,", ',').size(), 3u);
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("a,", ',').back(), "");
}

TEST(SplitLines, HandlesLfAndCrlf) {
  const auto lines = split_lines("one\r\ntwo\nthree");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
}

TEST(SplitLines, TrailingNewlineDoesNotAddLine) {
  EXPECT_EQ(split_lines("a\nb\n").size(), 2u);
  EXPECT_EQ(split_lines("\n").size(), 1u);
  EXPECT_EQ(split_lines("").size(), 0u);
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx"), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(SplitWs, NeverYieldsEmpty) {
  const auto t = split_ws("  a \t b\n c  ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(SplitWs, IntoAVectorReplacesItsContents) {
  std::vector<std::string_view> tokens = {"stale", "tokens", "here"};
  split_ws(" a\tb ", tokens);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  split_ws("  ", tokens);
  EXPECT_TRUE(tokens.empty());
}

TEST(Affixes, StartsEndsWith) {
  EXPECT_TRUE(starts_with("certdata.txt", "certdata"));
  EXPECT_FALSE(starts_with("cert", "certdata"));
  EXPECT_TRUE(ends_with("authroot.stl", ".stl"));
  EXPECT_FALSE(ends_with(".stl", "authroot.stl"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Case, LowerAndIequals) {
  EXPECT_EQ(to_lower("CKA_CLASS"), "cka_class");
  EXPECT_TRUE(iequals("TRUE", "true"));
  EXPECT_FALSE(iequals("TRUE", "TRU"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(IContains, FindsSubstringsCaseInsensitively) {
  EXPECT_TRUE(icontains("Chrome Mobile WebView", "webview"));
  EXPECT_TRUE(icontains("abc", ""));
  EXPECT_FALSE(icontains("abc", "abcd"));
  EXPECT_TRUE(icontains("SAMSUNG internet", "Samsung Internet"));
  EXPECT_FALSE(icontains("Samsung", "Samsung Internet"));
}

TEST(ParseCount, AcceptsDigitsUpToTheExactMax) {
  EXPECT_EQ(parse_count("0", 256), 0u);
  EXPECT_EQ(parse_count("007", 256), 7u);
  EXPECT_EQ(parse_count("256", 256), 256u);
  EXPECT_EQ(parse_count("257", 256), std::nullopt);
  EXPECT_EQ(parse_count("18446744073709551615", SIZE_MAX), SIZE_MAX);
}

TEST(ParseCount, RejectsJunkSignsAndOverflow) {
  for (const char* text : {"", "2x", "x2", "0x10", " 1", "1 ", "1.0", "+1",
                           "-1", "-0", "18446744073709551616",
                           "99999999999999999999999"}) {
    EXPECT_EQ(parse_count(text, SIZE_MAX), std::nullopt) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace rs::util
