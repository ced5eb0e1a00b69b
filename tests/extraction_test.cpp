#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extraction/aho_corasick.h"
#include "extraction/dictionary_extractor.h"
#include "extraction/double_propagation.h"
#include "ontology/cellphone_hierarchy.h"
#include "text/tokenizer.h"

namespace osrs {
namespace {

// ------------------------------------------------------------ Aho-Corasick

/// Find over `tokens`, each mapped to its symbol through SymbolOf.
std::vector<TokenAhoCorasick::Match> FindTokens(
    const TokenAhoCorasick& ac, const std::vector<std::string>& tokens) {
  std::vector<int> symbols;
  for (const std::string& token : tokens) symbols.push_back(ac.SymbolOf(token));
  std::vector<TokenAhoCorasick::Match> matches;
  ac.Find(symbols, &matches);
  return matches;
}

TEST(AhoCorasickTest, FindsSingleTokenPattern) {
  TokenAhoCorasick ac;
  ac.AddPattern({"battery"}, 1);
  ac.Build();
  auto matches = FindTokens(ac, {"the", "battery", "died"});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].payload, 1);
  EXPECT_EQ(matches[0].begin, 1u);
  EXPECT_EQ(matches[0].end, 2u);
}

TEST(AhoCorasickTest, FindsMultiTokenPattern) {
  TokenAhoCorasick ac;
  ac.AddPattern({"battery", "life"}, 7);
  ac.Build();
  auto matches = FindTokens(ac, {"great", "battery", "life", "here"});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].begin, 1u);
  EXPECT_EQ(matches[0].end, 3u);
}

TEST(AhoCorasickTest, OverlappingPatternsAllReported) {
  TokenAhoCorasick ac;
  ac.AddPattern({"battery"}, 1);
  ac.AddPattern({"battery", "life"}, 2);
  ac.AddPattern({"life"}, 3);
  ac.Build();
  auto matches = FindTokens(ac, {"battery", "life"});
  std::set<int> payloads;
  for (const auto& m : matches) payloads.insert(m.payload);
  EXPECT_EQ(payloads, (std::set<int>{1, 2, 3}));
}

TEST(AhoCorasickTest, SuffixPatternFoundViaFailLinks) {
  TokenAhoCorasick ac;
  ac.AddPattern({"very", "good", "screen"}, 1);
  ac.AddPattern({"good", "screen"}, 2);
  ac.Build();
  auto matches = FindTokens(ac, {"very", "good", "screen"});
  std::set<int> payloads;
  for (const auto& m : matches) payloads.insert(m.payload);
  EXPECT_EQ(payloads, (std::set<int>{1, 2}));
}

TEST(AhoCorasickTest, UnknownTokensResetState) {
  TokenAhoCorasick ac;
  ac.AddPattern({"battery", "life"}, 1);
  ac.Build();
  // "battery xyz life" must not match.
  EXPECT_TRUE(FindTokens(ac, {"battery", "xyz", "life"}).empty());
}

TEST(AhoCorasickTest, RepeatedMatches) {
  TokenAhoCorasick ac;
  ac.AddPattern({"good"}, 1);
  ac.Build();
  EXPECT_EQ(FindTokens(ac, {"good", "good", "good"}).size(), 3u);
}

TEST(AhoCorasickTest, EmptyPatternIgnored) {
  TokenAhoCorasick ac;
  ac.AddPattern({}, 1);
  ac.AddPattern({"x"}, 2);
  ac.Build();
  EXPECT_EQ(ac.num_patterns(), 1u);
}

// ----------------------------------------------------- DictionaryExtractor

TEST(DictionaryExtractorTest, ExtractsKnownAspects) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  auto concepts = extractor.ExtractConcepts(
      AsViews(Tokenize("The battery life is great")));
  ASSERT_EQ(concepts.size(), 1u);
  EXPECT_EQ(concepts[0], onto.FindByName("battery life"));
}

TEST(DictionaryExtractorTest, LongestSpanWins) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  // "battery life" must suppress the nested "battery" mention.
  auto mentions =
      extractor.FindMentions(AsViews(Tokenize("battery life is great")));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].concept_id, onto.FindByName("battery life"));
  EXPECT_EQ(mentions[0].begin, 0u);
  EXPECT_EQ(mentions[0].end, 2u);
}

TEST(DictionaryExtractorTest, StemmedVariantsMatch) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  auto concepts =
      extractor.ExtractConcepts(AsViews(Tokenize("the batteries die")));
  ASSERT_EQ(concepts.size(), 1u);
  EXPECT_EQ(concepts[0], onto.FindByName("battery"));
}

TEST(DictionaryExtractorTest, SynonymsResolveToCanonicalConcept) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  auto concepts =
      extractor.ExtractConcepts(AsViews(Tokenize("the display is dim")));
  ASSERT_EQ(concepts.size(), 1u);
  EXPECT_EQ(concepts[0], onto.FindByName("screen"));
}

TEST(DictionaryExtractorTest, MultipleConceptsInOneSentence) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  auto concepts = extractor.ExtractConcepts(
      AsViews(Tokenize("camera is fine but the speaker crackles")));
  std::set<ConceptId> ids(concepts.begin(), concepts.end());
  EXPECT_TRUE(ids.count(onto.FindByName("camera")));
  EXPECT_TRUE(ids.count(onto.FindByName("speaker")));
}

TEST(DictionaryExtractorTest, DeduplicatesRepeatedMentions) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  auto concepts =
      extractor.ExtractConcepts(AsViews(Tokenize("camera camera camera")));
  EXPECT_EQ(concepts.size(), 1u);
}

TEST(DictionaryExtractorTest, NoMentionsInUnrelatedText) {
  Ontology onto = BuildCellPhoneHierarchy();
  DictionaryExtractor extractor(&onto);
  EXPECT_TRUE(extractor
                  .ExtractConcepts(
                      AsViews(Tokenize("completely unrelated words")))
                  .empty());
}

// ------------------------------------------------------- DoublePropagation

std::vector<std::vector<std::string>> PhoneReviewSentences() {
  std::vector<std::vector<std::string>> sentences;
  auto add = [&sentences](const char* text, int copies) {
    for (int i = 0; i < copies; ++i) sentences.push_back(Tokenize(text));
  };
  add("the screen is great", 10);
  add("great battery here", 8);
  add("the camera is terrible", 7);
  add("awesome battery life overall", 6);
  add("speaker sounds bad", 5);
  add("random chatter about nothing specific", 10);
  return sentences;
}

TEST(DoublePropagationTest, MinesSeededAspects) {
  DoublePropagationOptions options;
  options.min_aspect_frequency = 3;
  DoublePropagation miner(options);
  auto aspects =
      miner.ExtractAspects(PhoneReviewSentences(), SentimentLexicon::Default());
  std::set<std::string> terms;
  for (const auto& a : aspects) terms.insert(a.term);
  EXPECT_TRUE(terms.count("screen"));
  EXPECT_TRUE(terms.count("battery"));
  EXPECT_TRUE(terms.count("camera"));
  EXPECT_TRUE(terms.count("speaker"));
  // Bigram aspect from adjacent candidates.
  EXPECT_TRUE(terms.count("battery life"));
  // Stopwords and opinion words are never aspects.
  EXPECT_FALSE(terms.count("the"));
  EXPECT_FALSE(terms.count("great"));
}

TEST(DoublePropagationTest, FrequencyRankedAndCapped) {
  DoublePropagationOptions options;
  options.min_aspect_frequency = 3;
  options.max_aspects = 2;
  DoublePropagation miner(options);
  auto aspects =
      miner.ExtractAspects(PhoneReviewSentences(), SentimentLexicon::Default());
  ASSERT_EQ(aspects.size(), 2u);
  EXPECT_GE(aspects[0].frequency, aspects[1].frequency);
}

TEST(DoublePropagationTest, MinFrequencyPrunes) {
  DoublePropagationOptions options;
  options.min_aspect_frequency = 1000;
  DoublePropagation miner(options);
  auto aspects =
      miner.ExtractAspects(PhoneReviewSentences(), SentimentLexicon::Default());
  EXPECT_TRUE(aspects.empty());
}

// ---------------------------------------------------- BuildAspectHierarchy

TEST(AspectHierarchyTest, CompoundAspectsNestUnderHead) {
  std::vector<ExtractedAspect> aspects = {
      {"battery", 50}, {"battery life", 20}, {"screen", 40}, {"price", 10}};
  Ontology onto = BuildAspectHierarchy(aspects, "product");
  EXPECT_EQ(onto.name(onto.root()), "product");
  ConceptId battery = onto.FindByName("battery");
  ConceptId battery_life = onto.FindByName("battery life");
  ASSERT_NE(battery, kInvalidConcept);
  ASSERT_NE(battery_life, kInvalidConcept);
  EXPECT_EQ(onto.AncestorDistance(battery, battery_life), 1);
  EXPECT_EQ(onto.DepthFromRoot(onto.FindByName("price")), 1);
}

TEST(AspectHierarchyTest, SuffixFallbackParent) {
  std::vector<ExtractedAspect> aspects = {{"quality", 30},
                                          {"picture quality", 12}};
  Ontology onto = BuildAspectHierarchy(aspects, "product");
  EXPECT_EQ(onto.AncestorDistance(onto.FindByName("quality"),
                                  onto.FindByName("picture quality")),
            1);
}

TEST(AspectHierarchyTest, ExtractorWorksOverMinedHierarchy) {
  // End-to-end: mine aspects, build the hierarchy, extract with it.
  DoublePropagationOptions options;
  options.min_aspect_frequency = 3;
  DoublePropagation miner(options);
  auto aspects =
      miner.ExtractAspects(PhoneReviewSentences(), SentimentLexicon::Default());
  Ontology onto = BuildAspectHierarchy(aspects, "product");
  DictionaryExtractor extractor(&onto);
  auto concepts = extractor.ExtractConcepts(
      AsViews(Tokenize("the battery life is short")));
  ASSERT_FALSE(concepts.empty());
  EXPECT_EQ(concepts[0], onto.FindByName("battery life"));
}

}  // namespace
}  // namespace osrs
