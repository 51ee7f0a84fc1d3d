#include "util/text.hpp"

#include <gtest/gtest.h>

#include <cctype>

#include "util/rng.hpp"

namespace pblpar::util {
namespace {

TEST(TextTest, ToLower) {
  EXPECT_EQ(to_lower("Hello WORLD"), "hello world");
  EXPECT_EQ(to_lower(""), "");
}

TEST(TextTest, SplitDropsEmptyPieces) {
  const auto pieces = split("a,,b,c,", ",");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(TextTest, SplitMultipleDelimiters) {
  const auto pieces = split("a b;c", " ;");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[2], "c");
}

TEST(TextTest, TokenizeWordsLowersAndKeepsApostrophes) {
  const auto words = tokenize_words("Don't STOP me now!");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "don't");
  EXPECT_EQ(words[1], "stop");
  EXPECT_EQ(words[2], "me");
  EXPECT_EQ(words[3], "now");
}

TEST(TextTest, TokenizeWordsOnEmptyAndPunctuation) {
  EXPECT_TRUE(tokenize_words("").empty());
  EXPECT_TRUE(tokenize_words("... !!! ???").empty());
}

/// tokenize_words spelled with <cctype> in the C locale: runs of
/// std::isalnum or '\'' bytes, each lowered with std::tolower.
std::vector<std::string> reference_words(const std::string& text) {
  std::vector<std::string> words;
  std::string current;
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    if (std::isalnum(byte) != 0 || byte == '\'') {
      current += static_cast<char>(std::tolower(byte));
    } else if (!current.empty()) {
      words.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    words.push_back(std::move(current));
  }
  return words;
}

TEST(TextTest, TokenizeWordsMatchesCctypeOnEveryByte) {
  for (int byte = 0; byte < 256; ++byte) {
    const char ch = static_cast<char>(byte);
    for (const std::string& text :
         {std::string(1, ch), std::string("a") + ch + "Z",
          std::string(" ") + ch + ch + " "}) {
      EXPECT_EQ(tokenize_words(text), reference_words(text)) << byte;
    }
  }
  Rng rng(256);
  for (int i = 0; i < 500; ++i) {
    std::string text(static_cast<std::size_t>(rng.next_below(64)), '\0');
    for (char& ch : text) {
      // Half the bytes come from 'A'..'z', so words run long.
      ch = static_cast<char>(rng.next_below(2) == 0 ? 'A' + rng.next_below(58)
                                                    : rng.next_below(256));
    }
    EXPECT_EQ(tokenize_words(text), reference_words(text)) << i;
  }
}

TEST(TextTest, SplitLinesHandlesCrLf) {
  const auto lines = split_lines("one\r\ntwo\nthree");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
}

TEST(TextTest, JoinRoundTrips) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(TextTest, StartsWith) {
  EXPECT_TRUE(starts_with("teamwork", "team"));
  EXPECT_FALSE(starts_with("team", "teamwork"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(TextTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n a b \r"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

}  // namespace
}  // namespace pblpar::util
