#ifndef OSRS_SENTIMENT_ESTIMATOR_H_
#define OSRS_SENTIMENT_ESTIMATOR_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sentiment/embeddings.h"
#include "sentiment/lexicon.h"
#include "sentiment/regression.h"

namespace osrs {

/// Configuration of the combined sentence-sentiment estimator.
struct SentimentEstimatorOptions {
  EmbeddingOptions embedding;
  /// Ridge penalty of the regression head.
  double ridge_lambda = 1.0;
  /// Blend between the lexicon path (1.0) and the regression path (0.0).
  double lexicon_weight = 0.5;
};

/// Sentence → sentiment in [-1, 1], following §5.1: sentences are embedded
/// into fixed-size vectors (doc2vec in the paper, PPMI-SVD here) and a
/// regression trained on review star ratings predicts the sentiment; the
/// graded opinion lexicon is blended in as the unsupervised prior. Either
/// path can be disabled via `lexicon_weight` (0 = regression only,
/// 1 = lexicon only).
class SentimentEstimator {
 public:
  /// Trains the regression head on tokenized sentences labeled with their
  /// review's normalized star rating in [-1, 1] (weak supervision — the
  /// rating is free, no annotation needed).
  static Result<SentimentEstimator> Train(
      const std::vector<std::vector<std::string>>& sentences,
      const std::vector<double>& ratings,
      const SentimentEstimatorOptions& options);

  /// A lexicon-only estimator (no training corpus required).
  static SentimentEstimator LexiconOnly();

  /// The lexicon the estimator scores with.
  const SentimentLexicon& lexicon() const {
    return SentimentLexicon::Default();
  }

  /// Sentiment of a tokenized sentence, clamped to [-1, 1]. The lexicon and
  /// the embeddings read the same token views.
  double ScoreSentence(std::span<const std::string_view> tokens) const;

  /// ScoreSentence with each token's lexicon row already looked up:
  /// `rows[i]` is `&lexicon().RowOf(tokens[i])`. The lexicon scores the
  /// rows; the embeddings read the tokens.
  double ScoreSentence(std::span<const SentimentLexicon::Row* const> rows,
                       std::span<const std::string_view> tokens) const;

  /// ScoreSentence over rows and tokens behind the "osrs.sentiment.score"
  /// failpoint — the variant serve-time annotation calls so the chaos suite
  /// can fail or stall scoring like any other phase a live request
  /// crosses. Scoring itself cannot fail, so the only non-OK outcomes are
  /// injected ones.
  Result<double> TryScoreSentence(
      std::span<const SentimentLexicon::Row* const> rows,
      std::span<const std::string_view> tokens) const;
  /// ScoreSentence of a Tokenize result behind the same failpoint, for
  /// perfbench's traced walk.
  Result<double> TryScoreSentence(
      const std::vector<std::string>& tokens) const;

  bool has_regression() const { return regression_ != nullptr; }

 private:
  SentimentEstimator() = default;

  /// The estimate for a sentence whose lexicon score is `lexicon_score`:
  /// the regression on the tokens' embedding blended in, clamped to
  /// [-1, 1].
  double Blend(double lexicon_score,
               std::span<const std::string_view> tokens) const;

  double lexicon_weight_ = 1.0;
  std::shared_ptr<const CooccurrenceEmbeddings> embeddings_;
  std::shared_ptr<const RidgeRegression> regression_;
};

}  // namespace osrs

#endif  // OSRS_SENTIMENT_ESTIMATOR_H_
