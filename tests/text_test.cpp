#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"

#include "text/porter_stemmer.h"
#include "text/sentence_splitter.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace osrs {
namespace {

// --------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, LowercasesAndDropsPunctuation) {
  EXPECT_EQ(Tokenize("The Battery, is GREAT!"),
            (std::vector<std::string>{"the", "battery", "is", "great"}));
}

TEST(TokenizerTest, KeepsInnerApostrophes) {
  EXPECT_EQ(Tokenize("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
  // Leading apostrophe is not part of a token.
  EXPECT_EQ(Tokenize("'quoted'"), (std::vector<std::string>{"quoted"}));
}

TEST(TokenizerTest, SplitsOnHyphens) {
  EXPECT_EQ(Tokenize("wi-fi"), (std::vector<std::string>{"wi", "fi"}));
}

TEST(TokenizerTest, DigitsAreTokens) {
  EXPECT_EQ(Tokenize("camera 12 mp"),
            (std::vector<std::string>{"camera", "12", "mp"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("!!! ... ---").empty());
}

TEST(TokenizerTest, OffsetsPointIntoSource) {
  std::string text = "Good phone!";
  auto spans = TokenizeWithOffsets(text);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].offset, 0u);
  EXPECT_EQ(spans[1].offset, 5u);
  EXPECT_EQ(text.substr(spans[1].offset, 5), "phone");
}

// --------------------------------------------------------- SentenceSplitter

TEST(SentenceSplitterTest, SplitsOnTerminators) {
  auto sents = SplitSentences("Great phone. Battery lasts long! Why not?");
  ASSERT_EQ(sents.size(), 3u);
  EXPECT_EQ(sents[0], "Great phone");
  EXPECT_EQ(sents[1], "Battery lasts long");
  EXPECT_EQ(sents[2], "Why not");
}

TEST(SentenceSplitterTest, KeepsAbbreviations) {
  auto sents = SplitSentences("Dr. Smith was great. I will return.");
  ASSERT_EQ(sents.size(), 2u);
  EXPECT_EQ(sents[0], "Dr. Smith was great");
}

TEST(SentenceSplitterTest, HandlesEllipsisAndRuns) {
  auto sents = SplitSentences("Really bad... Would not buy!!");
  ASSERT_EQ(sents.size(), 2u);
  EXPECT_EQ(sents[0], "Really bad");
  EXPECT_EQ(sents[1], "Would not buy");
}

TEST(SentenceSplitterTest, NewlinesSplit) {
  auto sents = SplitSentences("line one\nline two");
  ASSERT_EQ(sents.size(), 2u);
}

TEST(SentenceSplitterTest, TrailingTextWithoutTerminator) {
  auto sents = SplitSentences("no punctuation at all");
  ASSERT_EQ(sents.size(), 1u);
  EXPECT_EQ(sents[0], "no punctuation at all");
}

TEST(SentenceSplitterTest, EmptyInput) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   \n ").empty());
}

/// SplitSentences with the abbreviation check unbounded: at every period it
/// takes the whole run of letters and periods before it as the word.
std::vector<std::string> UnboundedSplitSentences(std::string_view text) {
  static const char* const kAbbreviations[] = {
      "dr", "mr", "mrs", "ms", "prof", "vs", "etc", "e.g", "i.e", "st", "jr",
      "approx"};
  auto is_word_byte = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '.';
  };
  auto ends_with_abbreviation = [&](size_t period_pos) {
    size_t start = period_pos;
    while (start > 0 && is_word_byte(text[start - 1])) --start;
    const std::string word = ToLower(text.substr(start, period_pos - start));
    if (word.size() == 1) return true;
    for (const char* abbr : kAbbreviations) {
      if (word == abbr) return true;
    }
    return false;
  };
  auto is_terminator = [](char c) { return c == '.' || c == '!' || c == '?'; };
  std::vector<std::string> sentences;
  auto emit = [&](size_t begin, size_t end) {
    std::string_view trimmed = Trim(text.substr(begin, end - begin));
    if (!trimmed.empty()) sentences.emplace_back(trimmed);
  };
  size_t begin = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n' || c == '!' || c == '?' ||
        (c == '.' && !ends_with_abbreviation(i))) {
      emit(begin, i);
      while (i + 1 < text.size() && is_terminator(text[i + 1])) ++i;
      begin = i + 1;
    }
  }
  emit(begin, text.size());
  return sentences;
}

// Random strings over letters, abbreviations, terminators, spaces and
// newlines split as the unbounded check splits them, and the views variant
// returns the same sentences.
TEST(SentenceSplitterTest, BoundedAbbreviationScanSplitsAsUnbounded) {
  static const char* const kPieces[] = {
      "a", "b", "e", "g", "i", "D", "r", "M", "s", "t", "v", "x", "P", "o",
      "f", "J", "c", "p", "dr", "Mrs", "e.g", "i.e", "approx", "etc", "st",
      "approxx", ".", ".", ".", "!", "?", " ", " ", "\n"};
  const size_t num_pieces = sizeof(kPieces) / sizeof(kPieces[0]);
  Rng rng(20261);
  std::vector<std::string_view> views;
  for (int n = 0; n < 20000; ++n) {
    std::string text;
    const uint64_t length = rng.NextUint64(48);
    for (uint64_t i = 0; i < length; ++i) {
      text += kPieces[rng.NextUint64(num_pieces)];
    }
    const std::vector<std::string> expected = UnboundedSplitSentences(text);
    ASSERT_EQ(SplitSentences(text), expected) << "\"" << text << "\"";
    SplitSentenceViews(text, &views);
    ASSERT_EQ(std::vector<std::string>(views.begin(), views.end()), expected)
        << "\"" << text << "\"";
  }
}

// 4 MiB of "ab.": every period ends a sentence, and each split looks back
// a bounded number of bytes. With the scan unbounded this input takes time
// quadratic in its length (an estimated 85 minutes).
TEST(SentenceSplitterTest, LetterPeriodRunSplitsInLinearTime) {
  const size_t repeats = (size_t{4} << 20) / 3;
  std::string text;
  text.reserve(repeats * 3);
  for (size_t i = 0; i < repeats; ++i) text += "ab.";
  std::vector<std::string_view> sentences;
  SplitSentenceViews(text, &sentences);
  ASSERT_EQ(sentences.size(), repeats);
  EXPECT_EQ(sentences.front(), "ab");
  EXPECT_EQ(sentences.back(), "ab");
}

// ------------------------------------------------------------------ Porter

TEST(PorterStemmerTest, ClassicExamples) {
  EXPECT_EQ(PorterStem("caresses"), "caress");
  EXPECT_EQ(PorterStem("ponies"), "poni");
  EXPECT_EQ(PorterStem("cats"), "cat");
  EXPECT_EQ(PorterStem("agreed"), "agre");
  EXPECT_EQ(PorterStem("plastered"), "plaster");
  EXPECT_EQ(PorterStem("motoring"), "motor");
  EXPECT_EQ(PorterStem("conflated"), "conflat");
  EXPECT_EQ(PorterStem("troubled"), "troubl");
  EXPECT_EQ(PorterStem("sized"), "size");
  EXPECT_EQ(PorterStem("hopping"), "hop");
  EXPECT_EQ(PorterStem("falling"), "fall");
  EXPECT_EQ(PorterStem("hissing"), "hiss");
  EXPECT_EQ(PorterStem("happy"), "happi");
  EXPECT_EQ(PorterStem("relational"), "relat");
  EXPECT_EQ(PorterStem("conditional"), "condit");
  EXPECT_EQ(PorterStem("digitizer"), "digit");
  EXPECT_EQ(PorterStem("hopefulness"), "hope");
  EXPECT_EQ(PorterStem("triplicate"), "triplic");
  EXPECT_EQ(PorterStem("formative"), "form");
  EXPECT_EQ(PorterStem("revival"), "reviv");
  EXPECT_EQ(PorterStem("adjustment"), "adjust");
  EXPECT_EQ(PorterStem("effective"), "effect");
  EXPECT_EQ(PorterStem("probate"), "probat");
  EXPECT_EQ(PorterStem("controll"), "control");
}

TEST(PorterStemmerTest, DomainWordsNormalize) {
  // The extractor relies on variants mapping to the same stem.
  EXPECT_EQ(PorterStem("charging"), PorterStem("charge"));
  EXPECT_EQ(PorterStem("batteries"), PorterStem("battery"));
  EXPECT_EQ(PorterStem("screens"), PorterStem("screen"));
}

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("is"), "is");
  EXPECT_EQ(PorterStem("a"), "a");
  EXPECT_EQ(PorterStem("by"), "by");
}

// The memo must answer exactly PorterStem, whatever it holds: 50,000 seeded
// random words (far more than kSlots, so slots are overwritten many times
// over), a word re-queried after another word took its slot, and a word
// longer than kMaxWordLength that bypasses the memo.
TEST(StemMemoTest, AgreesWithPorterStemUnderEviction) {
  StemMemo memo;
  Rng rng(1234);
  auto random_word = [&rng](size_t length) {
    std::string word;
    for (size_t i = 0; i < length; ++i) {
      word.push_back(static_cast<char>('a' + rng.NextUint64(26)));
    }
    return word;
  };
  const std::string first = "hospitalization";
  ASSERT_EQ(memo.Stem(first), PorterStem(first));
  bool first_evicted = false;
  for (int i = 0; i < 50000; ++i) {
    std::string word =
        random_word(1 + rng.NextUint64(StemMemo::kMaxWordLength));
    ASSERT_EQ(memo.Stem(word), PorterStem(word)) << word;
    ASSERT_EQ(memo.Stem(word), PorterStem(word)) << word << " (hit)";
    first_evicted |= word != first &&
                     StemMemo::SlotOf(word) == StemMemo::SlotOf(first);
  }
  ASSERT_TRUE(first_evicted) << "no word took the first word's slot";
  EXPECT_EQ(memo.Stem(first), PorterStem(first));

  const std::string long_word =
      "internationalizationalities" + random_word(StemMemo::kMaxWordLength);
  ASSERT_GT(long_word.size(), StemMemo::kMaxWordLength);
  EXPECT_EQ(memo.Stem(long_word), PorterStem(long_word));
  EXPECT_EQ(memo.Stem(first), PorterStem(first));
  EXPECT_EQ(memo.Stem(""), "");
}

TEST(StemMemoTest, OnePerThread) {
  EXPECT_EQ(&StemMemo::ForThisThread(), &StemMemo::ForThisThread());
  EXPECT_EQ(StemMemo::ForThisThread().Stem("charging"), PorterStem("charging"));
}

// --------------------------------------------------------------- Stopwords

TEST(StopwordsTest, CommonFunctionWords) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_TRUE(IsStopword("was"));
  EXPECT_FALSE(IsStopword("battery"));
  EXPECT_FALSE(IsStopword("doctor"));
}

// -------------------------------------------------------------- Vocabulary

TEST(VocabularyTest, InterningAndCounts) {
  Vocabulary vocab;
  int a1 = vocab.Add("phone");
  int b = vocab.Add("screen");
  int a2 = vocab.Add("phone");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(vocab.CountOf(a1), 2);
  EXPECT_EQ(vocab.WordOf(b), "screen");
  EXPECT_EQ(vocab.IdOf("phone"), a1);
  EXPECT_EQ(vocab.IdOf("missing"), kUnknownWord);
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, DocumentFrequencies) {
  Vocabulary vocab;
  vocab.AddDocument({"good", "phone", "good"});
  vocab.AddDocument({"bad", "phone"});
  EXPECT_EQ(vocab.num_documents(), 2);
  EXPECT_EQ(vocab.DocFrequencyOf(vocab.IdOf("phone")), 2);
  EXPECT_EQ(vocab.DocFrequencyOf(vocab.IdOf("good")), 1);
  // More common words get lower idf.
  EXPECT_LT(vocab.Idf(vocab.IdOf("phone")), vocab.Idf(vocab.IdOf("bad")));
}

TEST(VocabularyTest, MostFrequentOrdering) {
  Vocabulary vocab;
  for (int i = 0; i < 5; ++i) vocab.Add("common");
  for (int i = 0; i < 3; ++i) vocab.Add("medium");
  vocab.Add("rare");
  auto top = vocab.MostFrequent(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(vocab.WordOf(top[0]), "common");
  EXPECT_EQ(vocab.WordOf(top[1]), "medium");
}

}  // namespace
}  // namespace osrs
