// Tests of the post-paper extensions: distributional hierarchy induction,
// the parallel batch summarizer, and the sentiment evaluation utilities.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch_summarizer.h"
#include "datagen/cellphone_corpus.h"
#include "eval/sentiment_eval.h"
#include "extraction/hierarchy_induction.h"
#include "ontology/cellphone_hierarchy.h"
#include "text/tokenizer.h"

namespace osrs {
namespace {

// ----------------------------------------------------- Hierarchy induction

std::vector<std::vector<std::string>> SubsumptionCorpus() {
  std::vector<std::vector<std::string>> sentences;
  auto add = [&sentences](const char* text, int copies) {
    for (int i = 0; i < copies; ++i) sentences.push_back(Tokenize(text));
  };
  // "battery" is broad; "battery life" and "charging" almost always appear
  // with it; "screen" is an independent sibling.
  add("the battery is big", 20);
  add("battery life and battery", 10);
  add("charging the battery takes long", 8);
  add("the screen looks fine", 15);
  add("screen and battery are unrelated here", 2);
  return sentences;
}

std::vector<ExtractedAspect> SubsumptionAspects() {
  return {{"battery", 40}, {"screen", 17}, {"battery life", 10},
          {"charging", 8}};
}

TEST(HierarchyInductionTest, SubsumedAspectsNestUnderBroadOnes) {
  Ontology onto = InduceAspectHierarchy(SubsumptionCorpus(),
                                        SubsumptionAspects(), "product");
  ConceptId battery = onto.FindByName("battery");
  ConceptId battery_life = onto.FindByName("battery life");
  ConceptId charging = onto.FindByName("charging");
  ConceptId screen = onto.FindByName("screen");
  ASSERT_NE(battery, kInvalidConcept);
  // "battery life": every sentence mentioning it also mentions "battery"
  // (substring) -> child of battery. Same for "charging" (co-occurrence).
  EXPECT_EQ(onto.AncestorDistance(battery, battery_life), 1);
  EXPECT_EQ(onto.AncestorDistance(battery, charging), 1);
  // "screen" and "battery" are both broad and independent -> root children.
  EXPECT_EQ(onto.DepthFromRoot(screen), 1);
  EXPECT_EQ(onto.DepthFromRoot(battery), 1);
}

TEST(HierarchyInductionTest, NoEvidenceMeansFlatHierarchy) {
  // Aspects that never co-occur all hang off the root.
  std::vector<std::vector<std::string>> sentences;
  for (int i = 0; i < 10; ++i) {
    sentences.push_back(Tokenize("alpha only here"));
    sentences.push_back(Tokenize("beta on its own"));
    sentences.push_back(Tokenize("gamma alone too"));
  }
  std::vector<ExtractedAspect> aspects{{"alpha", 10}, {"beta", 10},
                                       {"gamma", 10}};
  Ontology onto = InduceAspectHierarchy(sentences, aspects, "root");
  for (const char* term : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(onto.DepthFromRoot(onto.FindByName(term)), 1) << term;
  }
}

TEST(HierarchyInductionTest, ResultIsAlwaysValidDagWithSynonyms) {
  Ontology onto = InduceAspectHierarchy(SubsumptionCorpus(),
                                        SubsumptionAspects(), "product");
  EXPECT_TRUE(onto.finalized());
  EXPECT_EQ(onto.num_concepts(), 5u);
  EXPECT_EQ(onto.FindByTerm("battery life"), onto.FindByName("battery life"));
}

TEST(HierarchyInductionTest, EmptyAspectsGiveRootOnly) {
  Ontology onto = InduceAspectHierarchy({}, {}, "root");
  EXPECT_EQ(onto.num_concepts(), 1u);
  EXPECT_EQ(onto.name(onto.root()), "root");
}

// -------------------------------------------------------- Batch summarizer

TEST(BatchSummarizerTest, ParallelMatchesSerial) {
  CellPhoneCorpusOptions corpus_options;
  corpus_options.scale = 0.05;  // 3 phones
  Corpus corpus = GenerateCellPhoneCorpus(corpus_options);
  // Truncate items so the test stays fast.
  std::vector<Item> items;
  for (const Item& item : corpus.items) {
    items.push_back(TruncateToPairBudget(item, 120));
  }

  BatchSummarizerOptions serial_options;
  serial_options.num_threads = 1;
  BatchSummarizerOptions parallel_options;
  parallel_options.num_threads = 4;
  BatchSummarizer serial(&corpus.ontology, serial_options);
  BatchSummarizer parallel(&corpus.ontology, parallel_options);

  auto a = serial.SummarizeAll(items, 4);
  auto b = parallel.SummarizeAll(items, 4);
  ASSERT_EQ(a.size(), items.size());
  ASSERT_EQ(b.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok());
    ASSERT_TRUE(b[i].status.ok());
    EXPECT_DOUBLE_EQ(a[i].summary.cost, b[i].summary.cost);
    ASSERT_EQ(a[i].summary.entries.size(), b[i].summary.entries.size());
    for (size_t e = 0; e < a[i].summary.entries.size(); ++e) {
      EXPECT_EQ(a[i].summary.entries[e].display,
                b[i].summary.entries[e].display);
    }
  }
}

TEST(BatchSummarizerTest, EmptyBatch) {
  Ontology onto = BuildCellPhoneHierarchy();
  BatchSummarizer batch(&onto, {});
  EXPECT_TRUE(batch.SummarizeAll({}, 3).empty());
}

TEST(BatchSummarizerTest, PerItemErrorsAreIsolated) {
  Ontology onto = BuildCellPhoneHierarchy();
  Item good;
  good.id = "good";
  Review review;
  review.sentences.push_back(
      {"screen is great", {{onto.FindByName("screen"), 0.75}}});
  good.reviews.push_back(review);
  Item empty;  // no pairs: still fine, just an empty summary
  empty.id = "empty";
  BatchSummarizer batch(&onto, {});
  auto entries = batch.SummarizeAll({good, empty}, 2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].status.ok());
  EXPECT_EQ(entries[0].summary.entries.size(), 1u);
  EXPECT_TRUE(entries[1].status.ok());
  EXPECT_TRUE(entries[1].summary.entries.empty());
}

// --------------------------------------------------------- Sentiment eval

TEST(SentimentEvalTest, PerfectEstimatorScoresPerfectly) {
  // References produced by the lexicon itself -> zero error, rho = 1.
  auto estimator = SentimentEstimator::LexiconOnly();
  std::vector<std::vector<std::string>> sentences{
      Tokenize("this is excellent"), Tokenize("this is terrible"),
      Tokenize("this is good"), Tokenize("this is bad")};
  std::vector<double> references;
  for (const auto& sentence : sentences) {
    references.push_back(estimator.ScoreSentence(AsViews(sentence)));
  }
  auto result = EvaluateSentiment(estimator, sentences, references);
  EXPECT_EQ(result.num_sentences, 4u);
  EXPECT_NEAR(result.mean_absolute_error, 0.0, 1e-12);
  EXPECT_NEAR(result.pearson, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.polarity_accuracy, 1.0);
}

TEST(SentimentEvalTest, LexiconBeatsNeutralOnGeneratedCorpus) {
  CellPhoneCorpusOptions corpus_options;
  corpus_options.scale = 0.02;
  Corpus corpus = GenerateCellPhoneCorpus(corpus_options);
  std::vector<std::vector<std::string>> sentences;
  std::vector<double> references;
  for (const Item& item : corpus.items) {
    for (const Review& review : item.reviews) {
      for (const Sentence& sentence : review.sentences) {
        if (sentence.pairs.empty()) continue;
        sentences.push_back(Tokenize(sentence.text));
        references.push_back(sentence.pairs[0].sentiment);
      }
    }
  }
  ASSERT_GT(sentences.size(), 200u);
  auto lexicon_result = EvaluateSentiment(SentimentEstimator::LexiconOnly(),
                                          sentences, references);
  // A neutral predictor has MAE = mean |reference| and zero correlation.
  double neutral_mae = 0.0;
  for (double r : references) neutral_mae += std::abs(r);
  neutral_mae /= static_cast<double>(references.size());
  EXPECT_LT(lexicon_result.mean_absolute_error, neutral_mae);
  EXPECT_GT(lexicon_result.pearson, 0.4);
  EXPECT_GT(lexicon_result.polarity_accuracy, 0.6);
}

TEST(SentimentEvalTest, EmptyInput) {
  auto result =
      EvaluateSentiment(SentimentEstimator::LexiconOnly(), {}, {});
  EXPECT_EQ(result.num_sentences, 0u);
  EXPECT_DOUBLE_EQ(result.mean_absolute_error, 0.0);
}

}  // namespace
}  // namespace osrs
