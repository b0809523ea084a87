#include "metrics/soundex.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace {

using fbf::metrics::soundex;
using fbf::metrics::soundex_match;

// std::string, not const char*: gtest prints a pointer parameter as its
// address, which ASLR changes on every run, so the test names would too.
class SoundexKnownCodes
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

std::tuple<std::string, std::string> Code(const char* name, const char* code) {
  return {name, code};
}

TEST_P(SoundexKnownCodes, EncodesToReferenceCode) {
  const auto [name, code] = GetParam();
  EXPECT_EQ(soundex(name), code) << name;
}

INSTANTIATE_TEST_SUITE_P(
    CensusReference, SoundexKnownCodes,
    ::testing::Values(
        // Classic Knuth / Census reference vectors.
        Code("ROBERT", "R163"), Code("RUPERT", "R163"),
        Code("RUBIN", "R150"), Code("ASHCRAFT", "A261"),
        Code("ASHCROFT", "A261"),  // H/W transparency rule
        Code("TYMCZAK", "T522"), Code("PFISTER", "P236"),
        Code("HONEYMAN", "H555"), Code("SMITH", "S530"),
        Code("SMYTH", "S530"), Code("JACKSON", "J250"),
        Code("WASHINGTON", "W252"), Code("LEE", "L000"),
        Code("GUTIERREZ", "G362"),
        Code("JOHNSON", "J525"), Code("WILLIAMS", "W452"),
        Code("EULER", "E460"), Code("GAUSS", "G200"),
        Code("HILBERT", "H416"), Code("KNUTH", "K530"),
        Code("LLOYD", "L300"), Code("LUKASIEWICZ", "L222")));

TEST(Soundex, CaseInsensitive) {
  EXPECT_EQ(soundex("smith"), soundex("SMITH"));
  EXPECT_EQ(soundex("McDonald"), soundex("MCDONALD"));
}

TEST(Soundex, IgnoresNonLetters) {
  EXPECT_EQ(soundex("O'BRIEN"), soundex("OBRIEN"));
  EXPECT_EQ(soundex("SMITH-JONES"), soundex("SMITHJONES"));
}

TEST(Soundex, EmptyAndSymbolOnlyInputs) {
  EXPECT_EQ(soundex(""), "");
  EXPECT_EQ(soundex("123"), "");
  EXPECT_EQ(soundex("-'-"), "");
}

TEST(Soundex, PadsToFourCharacters) {
  EXPECT_EQ(soundex("A").size(), 4u);
  EXPECT_EQ(soundex("A"), "A000");
  EXPECT_EQ(soundex("AB"), "A100");
}

TEST(Soundex, TruncatesToFourCharacters) {
  EXPECT_EQ(soundex("SCHWARZENEGGER").size(), 4u);
}

TEST(Soundex, VowelSeparatorAllowsRepeatCode) {
  // T-Y-M-C-Z-A-K: the vowel resets the duplicate window.
  EXPECT_EQ(soundex("TYMCZAK"), "T522");
}

TEST(SoundexMatch, MatchesVariantSpellings) {
  // The legacy behaviour the paper criticizes: aggressive matching...
  EXPECT_TRUE(soundex_match("SMITH", "SMYTH"));
  EXPECT_TRUE(soundex_match("ROBERT", "RUPERT"));
  // ...but it misses single-edit typos that shift the code (paper: the
  // Soundex found less than half the true positive matches).
  EXPECT_FALSE(soundex_match("SMITH", "MITH"));   // leading-char deletion
  EXPECT_FALSE(soundex_match("SMITH", "SMITB"));  // trailing substitution
}

TEST(SoundexMatch, EmptyNeverMatches) {
  EXPECT_FALSE(soundex_match("", ""));
  EXPECT_FALSE(soundex_match("", "SMITH"));
}

}  // namespace
