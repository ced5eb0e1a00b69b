#include <cmath>

#include <gtest/gtest.h>

#include "eval/elbow.h"
#include "eval/sent_err.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/ontology.h"

namespace osrs {
namespace {

Ontology BuildChain() {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ConceptId s = onto.AddConcept("s");
  EXPECT_TRUE(onto.AddEdge(root, a).ok());
  EXPECT_TRUE(onto.AddEdge(a, b).ok());
  EXPECT_TRUE(onto.AddEdge(root, s).ok());
  EXPECT_TRUE(onto.Finalize().ok());
  return onto;
}

// ----------------------------------------------------------------- SentErr

TEST(SentErrTest, ExactConceptMatchUsesClosestSentiment) {
  Ontology onto = BuildChain();
  ConceptId a = onto.FindByName("a");
  std::vector<ConceptSentimentPair> reviews{{a, 0.8}};
  std::vector<ConceptSentimentPair> summary{{a, 0.5}, {a, 0.7}};
  // Closest summary sentiment on 'a' is 0.7 -> err 0.1.
  EXPECT_NEAR(SentErr(onto, reviews, summary, false), 0.1, 1e-12);
}

TEST(SentErrTest, LowestAncestorFallback) {
  Ontology onto = BuildChain();
  ConceptId a = onto.FindByName("a");
  ConceptId b = onto.FindByName("b");
  std::vector<ConceptSentimentPair> reviews{{b, 0.6}};
  // b absent; its lowest summary ancestor is a (not root).
  std::vector<ConceptSentimentPair> summary{{a, 0.1},
                                            {onto.root(), -1.0}};
  EXPECT_NEAR(SentErr(onto, reviews, summary, false), 0.5, 1e-12);
}

TEST(SentErrTest, MissingConceptNeutralVsPenalized) {
  Ontology onto = BuildChain();
  ConceptId s = onto.FindByName("s");
  std::vector<ConceptSentimentPair> reviews{{s, 0.6}};
  std::vector<ConceptSentimentPair> summary{
      {onto.FindByName("a"), 0.0}};  // unrelated branch
  // Plain: |0.6| = 0.6. Penalized: max(|1-0.6|, |-1-0.6|) = 1.6.
  EXPECT_NEAR(SentErr(onto, reviews, summary, false), 0.6, 1e-12);
  EXPECT_NEAR(SentErr(onto, reviews, summary, true), 1.6, 1e-12);
}

TEST(SentErrTest, RootMeanSquareAggregation) {
  Ontology onto = BuildChain();
  ConceptId a = onto.FindByName("a");
  ConceptId s = onto.FindByName("s");
  std::vector<ConceptSentimentPair> reviews{{a, 0.5}, {s, 0.5}};
  std::vector<ConceptSentimentPair> summary{{a, 0.5}};
  // errs: 0 and 0.5 -> rms = sqrt(0.25/2).
  EXPECT_NEAR(SentErr(onto, reviews, summary, false),
              std::sqrt(0.125), 1e-12);
}

TEST(SentErrTest, EmptyReviewsZero) {
  Ontology onto = BuildChain();
  EXPECT_DOUBLE_EQ(SentErr(onto, {}, {}, false), 0.0);
}

TEST(SentErrTest, PerfectSummaryZeroError) {
  Ontology onto = BuildChain();
  ConceptId a = onto.FindByName("a");
  ConceptId b = onto.FindByName("b");
  std::vector<ConceptSentimentPair> reviews{{a, 0.4}, {b, -0.2}};
  EXPECT_DOUBLE_EQ(SentErr(onto, reviews, reviews, true), 0.0);
  (void)b;
}

TEST(SentErrTest, PenalizedAtLeastPlain) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<ConceptSentimentPair> reviews;
  for (ConceptId c : {onto.FindByName("screen"), onto.FindByName("battery"),
                      onto.FindByName("camera"), onto.FindByName("price")}) {
    reviews.push_back({c, 0.3});
    reviews.push_back({c, -0.6});
  }
  std::vector<ConceptSentimentPair> summary{
      {onto.FindByName("screen"), 0.3}};
  EXPECT_GE(SentErr(onto, reviews, summary, true),
            SentErr(onto, reviews, summary, false));
}

// ------------------------------------------------------------------- Elbow

TEST(ElbowTest, CoverageNonDecreasingInEpsilon) {
  Ontology onto = BuildCellPhoneHierarchy();
  std::vector<ConceptSentimentPair> pairs;
  // Clustered sentiments: small eps covers within clusters only.
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  for (int i = 0; i < 10; ++i) {
    pairs.push_back({screen, 0.8 - 0.02 * i});
    pairs.push_back({battery, -0.5 + 0.02 * i});
    pairs.push_back({onto.FindByName("camera"), 0.1 * (i % 3)});
  }
  Result<ElbowResult> elbow = SelectEpsilonByElbow(
      onto, pairs, 3, {0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}, {});
  ASSERT_TRUE(elbow.ok()) << elbow.status().ToString();
  const ElbowResult& result = *elbow;
  ASSERT_EQ(result.covered_fraction.size(), 7u);
  for (size_t i = 1; i < result.covered_fraction.size(); ++i) {
    EXPECT_GE(result.covered_fraction[i],
              result.covered_fraction[i - 1] - 0.15);
  }
  EXPECT_GE(result.chosen_epsilon, 0.1);
  EXPECT_LE(result.chosen_epsilon, 2.0);
}

TEST(ElbowTest, SingleEpsilonChosen) {
  Ontology onto = BuildChain();
  std::vector<ConceptSentimentPair> pairs{{onto.FindByName("a"), 0.5}};
  Result<ElbowResult> result = SelectEpsilonByElbow(onto, pairs, 1, {0.5}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->chosen_epsilon, 0.5);
}

}  // namespace
}  // namespace osrs
