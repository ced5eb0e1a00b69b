#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "sentiment/embeddings.h"
#include "sentiment/estimator.h"
#include "sentiment/lexicon.h"
#include "sentiment/regression.h"
#include "text/tokenizer.h"

namespace osrs {
namespace {

// ----------------------------------------------------------------- Lexicon

TEST(LexiconTest, GradedStrengths) {
  const auto& lex = SentimentLexicon::Default();
  EXPECT_GT(lex.OpinionStrength("excellent"), lex.OpinionStrength("good"));
  EXPECT_GT(lex.OpinionStrength("good"), 0.0);
  EXPECT_LT(lex.OpinionStrength("bad"), 0.0);
  EXPECT_LT(lex.OpinionStrength("terrible"), lex.OpinionStrength("bad"));
  EXPECT_DOUBLE_EQ(lex.OpinionStrength("table"), 0.0);
  EXPECT_TRUE(lex.IsOpinionWord("great"));
  EXPECT_FALSE(lex.IsOpinionWord("phone"));
}

TEST(LexiconTest, PositiveSentenceScoresPositive) {
  const auto& lex = SentimentLexicon::Default();
  EXPECT_GT(lex.ScoreSentence(AsViews(Tokenize("the screen is great"))), 0.0);
  EXPECT_LT(lex.ScoreSentence(AsViews(Tokenize("the screen is terrible"))),
            0.0);
  EXPECT_DOUBLE_EQ(
      lex.ScoreSentence(AsViews(Tokenize("the screen has pixels"))), 0.0);
}

TEST(LexiconTest, IntensifierAmplifies) {
  const auto& lex = SentimentLexicon::Default();
  double base = lex.ScoreSentence(AsViews(Tokenize("it is good")));
  double intense = lex.ScoreSentence(AsViews(Tokenize("it is very good")));
  double weak = lex.ScoreSentence(AsViews(Tokenize("it is slightly good")));
  EXPECT_GT(intense, base);
  EXPECT_LT(weak, base);
  EXPECT_GT(weak, 0.0);
}

TEST(LexiconTest, NegationFlips) {
  const auto& lex = SentimentLexicon::Default();
  double positive = lex.ScoreSentence(AsViews(Tokenize("it is good")));
  double negated = lex.ScoreSentence(AsViews(Tokenize("it is not good")));
  EXPECT_GT(positive, 0.0);
  EXPECT_LT(negated, 0.0);
  // Damped flip: |not good| < |good|.
  EXPECT_LT(std::abs(negated), std::abs(positive) + 1e-12);
}

TEST(LexiconTest, DoubleNegationRestores) {
  const auto& lex = SentimentLexicon::Default();
  EXPECT_GT(lex.ScoreSentence(AsViews(Tokenize("never not good"))), 0.0);
}

TEST(LexiconTest, ScoresClampToUnitRange) {
  const auto& lex = SentimentLexicon::Default();
  double s = lex.ScoreSentence(
      AsViews(Tokenize("extremely incredibly absolutely amazing perfect "
                       "excellent")));
  EXPECT_LE(s, 1.0);
  EXPECT_GE(s, -1.0);
}

TEST(LexiconTest, WordForStrengthRoundTrips) {
  const auto& lex = SentimentLexicon::Default();
  for (double target : {-0.9, -0.5, -0.3, 0.3, 0.5, 0.75, 0.95}) {
    const std::string& word = lex.WordForStrength(target);
    ASSERT_FALSE(word.empty());
    EXPECT_NEAR(lex.OpinionStrength(word), target, 0.2) << word;
  }
}

// Every opinion word must be reachable: a tokenized sentence holding just
// that word is that one token and scores the word's strength. A word the
// tokenizer splits (a hyphenated one, say) could never match a token.
TEST(LexiconTest, EveryOpinionWordIsOneTokenThatScoresItsStrength) {
  const auto& lex = SentimentLexicon::Default();
  for (const auto& [word, strength] : lex.AllOpinionWords()) {
    std::vector<std::string> tokens = Tokenize(word);
    EXPECT_EQ(tokens, std::vector<std::string>{word});
    EXPECT_EQ(lex.ScoreSentence(AsViews(tokens)), lex.OpinionStrength(word))
        << word;
    EXPECT_EQ(lex.OpinionStrength(word), strength) << word;
  }
}

// -------------------------------------------------------------- Regression

TEST(RidgeRegressionTest, RecoversLinearFunction) {
  // y = 2 x0 - 3 x1 + 1 with no noise.
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.NextDouble(-1, 1), b = rng.NextDouble(-1, 1);
    x.push_back({a, b});
    y.push_back(2 * a - 3 * b + 1);
  }
  auto model = RidgeRegression::Fit(x, y, 1e-6);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->weights()[0], 2.0, 1e-3);
  EXPECT_NEAR(model->weights()[1], -3.0, 1e-3);
  EXPECT_NEAR(model->intercept(), 1.0, 1e-3);
  EXPECT_NEAR(model->Predict({0.5, 0.5}), 0.5, 1e-3);
}

TEST(RidgeRegressionTest, RegularizationShrinksWeights) {
  Rng rng(6);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    double a = rng.NextDouble(-1, 1);
    x.push_back({a});
    y.push_back(5 * a);
  }
  auto weak = RidgeRegression::Fit(x, y, 1e-6);
  auto strong = RidgeRegression::Fit(x, y, 100.0);
  ASSERT_TRUE(weak.ok());
  ASSERT_TRUE(strong.ok());
  EXPECT_LT(std::abs(strong->weights()[0]), std::abs(weak->weights()[0]));
}

TEST(RidgeRegressionTest, RejectsBadInput) {
  EXPECT_FALSE(RidgeRegression::Fit({}, {}, 1.0).ok());
  EXPECT_FALSE(RidgeRegression::Fit({{1.0}}, {1.0, 2.0}, 1.0).ok());
  EXPECT_FALSE(RidgeRegression::Fit({{1.0}}, {1.0}, 0.0).ok());
  EXPECT_FALSE(RidgeRegression::Fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}, 1.0).ok());
}

// -------------------------------------------------------------- Embeddings

std::vector<std::vector<std::string>> ToySentences() {
  // Two topical clusters: display words co-occur; battery words co-occur.
  std::vector<std::vector<std::string>> sentences;
  for (int i = 0; i < 60; ++i) {
    sentences.push_back(Tokenize("the screen display resolution is sharp"));
    sentences.push_back(Tokenize("screen brightness and display colors"));
    sentences.push_back(Tokenize("battery charge lasts long charging"));
    sentences.push_back(Tokenize("battery drains fast while charging"));
  }
  return sentences;
}

TEST(EmbeddingsTest, TopicalWordsAreCloserThanCrossTopic) {
  EmbeddingOptions options;
  options.dimensions = 16;
  auto emb = CooccurrenceEmbeddings::Train(ToySentences(), options);
  double same_topic =
      CosineSimilarity(emb.VectorOf("screen"), emb.VectorOf("display"));
  double cross_topic =
      CosineSimilarity(emb.VectorOf("screen"), emb.VectorOf("battery"));
  EXPECT_GT(same_topic, cross_topic);
}

TEST(EmbeddingsTest, OovWordsGetZeroVectors) {
  EmbeddingOptions options;
  options.dimensions = 8;
  auto emb = CooccurrenceEmbeddings::Train(ToySentences(), options);
  EXPECT_FALSE(emb.Contains("xylophone"));
  auto v = emb.VectorOf("xylophone");
  EXPECT_EQ(v.size(), 8u);
  EXPECT_DOUBLE_EQ(Norm2(v), 0.0);
}

TEST(EmbeddingsTest, SentenceVectorIsNormalized) {
  EmbeddingOptions options;
  options.dimensions = 8;
  auto emb = CooccurrenceEmbeddings::Train(ToySentences(), options);
  auto v = emb.SentenceVector(AsViews(Tokenize("screen display brightness")));
  EXPECT_NEAR(Norm2(v), 1.0, 1e-9);
  auto empty = emb.SentenceVector(AsViews(Tokenize("zzz qqq")));
  EXPECT_DOUBLE_EQ(Norm2(empty), 0.0);
}

TEST(EmbeddingsTest, DeterministicForSeed) {
  EmbeddingOptions options;
  options.dimensions = 8;
  auto a = CooccurrenceEmbeddings::Train(ToySentences(), options);
  auto b = CooccurrenceEmbeddings::Train(ToySentences(), options);
  EXPECT_EQ(a.VectorOf("screen"), b.VectorOf("screen"));
}

TEST(EmbeddingsTest, RespectsMaxVocab) {
  EmbeddingOptions options;
  options.dimensions = 4;
  options.max_vocab = 3;
  auto emb = CooccurrenceEmbeddings::Train(ToySentences(), options);
  EXPECT_LE(emb.vocabulary_size(), 3u);
}

// --------------------------------------------------------------- Estimator

TEST(SentimentEstimatorTest, LexiconOnlyMatchesLexicon) {
  auto estimator = SentimentEstimator::LexiconOnly();
  EXPECT_FALSE(estimator.has_regression());
  auto tokens = Tokenize("the camera is excellent");
  EXPECT_DOUBLE_EQ(estimator.ScoreSentence(AsViews(tokens)),
                   SentimentLexicon::Default().ScoreSentence(AsViews(tokens)));
}

TEST(SentimentEstimatorTest, TrainedEstimatorSeparatesPolarity) {
  // Weak supervision: positive-rated sentences use positive vocabulary.
  std::vector<std::vector<std::string>> sentences;
  std::vector<double> ratings;
  for (int i = 0; i < 80; ++i) {
    sentences.push_back(Tokenize("great phone amazing screen love it"));
    ratings.push_back(1.0);
    sentences.push_back(Tokenize("terrible phone awful screen hate it"));
    ratings.push_back(-1.0);
  }
  SentimentEstimatorOptions options;
  options.embedding.dimensions = 12;
  options.lexicon_weight = 0.0;  // regression path only
  auto estimator = SentimentEstimator::Train(sentences, ratings, options);
  ASSERT_TRUE(estimator.ok());
  EXPECT_TRUE(estimator->has_regression());
  double pos =
      estimator->ScoreSentence(AsViews(Tokenize("amazing screen love")));
  double neg =
      estimator->ScoreSentence(AsViews(Tokenize("awful screen hate")));
  EXPECT_GT(pos, neg);
  EXPECT_GT(pos, 0.0);
  EXPECT_LT(neg, 0.0);
}

TEST(SentimentEstimatorTest, RejectsBadInput) {
  SentimentEstimatorOptions options;
  EXPECT_FALSE(SentimentEstimator::Train({}, {}, options).ok());
  options.lexicon_weight = 2.0;
  EXPECT_FALSE(
      SentimentEstimator::Train({Tokenize("hello")}, {0.5}, options).ok());
}

TEST(SentimentEstimatorTest, BlendStaysInRange) {
  std::vector<std::vector<std::string>> sentences;
  std::vector<double> ratings;
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    sentences.push_back(Tokenize("good bad screen battery random words"));
    ratings.push_back(rng.NextDouble(-1, 1));
  }
  SentimentEstimatorOptions options;
  options.embedding.dimensions = 8;
  options.lexicon_weight = 0.5;
  auto estimator = SentimentEstimator::Train(sentences, ratings, options);
  ASSERT_TRUE(estimator.ok());
  for (const auto& s : sentences) {
    double score = estimator->ScoreSentence(AsViews(s));
    EXPECT_LE(score, 1.0);
    EXPECT_GE(score, -1.0);
  }
}

}  // namespace
}  // namespace osrs
