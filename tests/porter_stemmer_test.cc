#include "text/porter_stemmer.h"

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

// Reference pairs from Porter (1980) and the canonical demo vocabulary.
struct StemCase {
  const char* input;
  const char* expected;
};

class PorterStemmerCaseTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerCaseTest, MatchesReference) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem(GetParam().input), GetParam().expected)
      << "input: " << GetParam().input;
}

INSTANTIATE_TEST_SUITE_P(
    Plurals, PorterStemmerCaseTest,
    ::testing::Values(StemCase{"caresses", "caress"},
                      StemCase{"ponies", "poni"}, StemCase{"ties", "ti"},
                      StemCase{"caress", "caress"}, StemCase{"cats", "cat"}));

INSTANTIATE_TEST_SUITE_P(
    EdIng, PorterStemmerCaseTest,
    ::testing::Values(StemCase{"feed", "feed"},
                      StemCase{"plastered", "plaster"},
                      StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
                      StemCase{"sing", "sing"}, StemCase{"hopping", "hop"},
                      StemCase{"tanned", "tan"}, StemCase{"falling", "fall"},
                      StemCase{"hissing", "hiss"}, StemCase{"fizzed", "fizz"},
                      StemCase{"failing", "fail"}, StemCase{"filing", "file"},
                      StemCase{"conflated", "conflat"},
                      StemCase{"troubled", "troubl"},
                      StemCase{"sized", "size"}));

INSTANTIATE_TEST_SUITE_P(
    YToI, PorterStemmerCaseTest,
    ::testing::Values(StemCase{"happy", "happi"}, StemCase{"sky", "sky"}));

INSTANTIATE_TEST_SUITE_P(
    MultiStep, PorterStemmerCaseTest,
    ::testing::Values(StemCase{"relational", "relat"},
                      StemCase{"conditional", "condit"},
                      StemCase{"rational", "ration"},
                      StemCase{"oscillators", "oscil"},
                      StemCase{"generalization", "gener"},
                      StemCase{"happiness", "happi"},
                      StemCase{"argument", "argument"},
                      StemCase{"adjustment", "adjust"},
                      StemCase{"dependent", "depend"},
                      StemCase{"adoption", "adopt"},
                      StemCase{"communism", "commun"},
                      StemCase{"effective", "effect"},
                      StemCase{"formative", "form"},
                      StemCase{"electricity", "electr"},
                      StemCase{"hopeful", "hope"},
                      StemCase{"goodness", "good"}));

TEST(PorterStemmerTest, ShortWordsUntouched) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("at"), "at");
  EXPECT_EQ(stemmer.Stem("is"), "is");
  EXPECT_EQ(stemmer.Stem("a"), "a");
  EXPECT_EQ(stemmer.Stem(""), "");
}

TEST(PorterStemmerTest, NonAlphaUntouched) {
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("win32"), "win32");
  EXPECT_EQ(stemmer.Stem("Hello"), "Hello");  // uppercase not handled
  EXPECT_EQ(stemmer.Stem("c++"), "c++");
}

TEST(PorterStemmerTest, SuffixSpansWholeWordIsSafe) {
  PorterStemmer stemmer;
  // Words that *are* suffixes must not underflow the stem bounds.
  EXPECT_EQ(stemmer.Stem("ing"), "ing");
  EXPECT_EQ(stemmer.Stem("eed"), "eed");
  EXPECT_EQ(stemmer.Stem("ies"), "i");
  EXPECT_EQ(stemmer.Stem("sses"), "ss");
  // Step 2's "ational"→"ate" needs m>0 over the empty stem and must not
  // fire; step 4 then strips "-al" (m("ation") = 2), the reference result.
  EXPECT_EQ(stemmer.Stem("ational"), "ation");
}

TEST(PorterStemmerTest, OutputAlwaysNonEmptyLowercaseAlpha) {
  PorterStemmer stemmer;
  const char* words[] = {"running",  "jumped",   "flies",     "happily",
                         "relations", "organizer", "sensational", "zzzs",
                         "aaa",      "eee",      "bbb",       "systematically"};
  for (const char* w : words) {
    std::string out = stemmer.Stem(w);
    ASSERT_FALSE(out.empty()) << w;
    for (char c : out) {
      ASSERT_GE(c, 'a') << w;
      ASSERT_LE(c, 'z') << w;
    }
    ASSERT_LE(out.size(), std::string(w).size() + 1) << w;
  }
}

TEST(PorterStemmerTest, InflectionFamiliesCollapse) {
  // The property the preprocessing pipeline relies on: inflected forms of
  // one lemma map to one id.
  PorterStemmer stemmer;
  EXPECT_EQ(stemmer.Stem("connect"), stemmer.Stem("connected"));
  EXPECT_EQ(stemmer.Stem("connect"), stemmer.Stem("connecting"));
  EXPECT_EQ(stemmer.Stem("connect"), stemmer.Stem("connection"));
  EXPECT_EQ(stemmer.Stem("connect"), stemmer.Stem("connections"));
}

}  // namespace
}  // namespace p2pdt
