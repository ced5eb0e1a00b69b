#include "sentiment/estimator.h"

#include <utility>

#include "common/math_util.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "text/tokenizer.h"

namespace osrs {

Result<SentimentEstimator> SentimentEstimator::Train(
    const std::vector<std::vector<std::string>>& sentences,
    const std::vector<double>& ratings,
    const SentimentEstimatorOptions& options) {
  if (sentences.size() != ratings.size() || sentences.empty()) {
    return Status::InvalidArgument(
        StrFormat("need matching non-empty sentences (%zu) / ratings (%zu)",
                  sentences.size(), ratings.size()));
  }
  if (options.lexicon_weight < 0.0 || options.lexicon_weight > 1.0) {
    return Status::InvalidArgument("lexicon_weight must be in [0, 1]");
  }

  SentimentEstimator estimator;
  estimator.lexicon_weight_ = options.lexicon_weight;
  auto embeddings = std::make_shared<CooccurrenceEmbeddings>(
      CooccurrenceEmbeddings::Train(sentences, options.embedding));

  std::vector<std::vector<double>> features;
  features.reserve(sentences.size());
  for (const auto& tokens : sentences) {
    features.push_back(embeddings->SentenceVector(AsViews(tokens)));
  }
  auto regression =
      RidgeRegression::Fit(features, ratings, options.ridge_lambda);
  OSRS_RETURN_IF_ERROR(regression.status());

  estimator.embeddings_ = std::move(embeddings);
  estimator.regression_ =
      std::make_shared<RidgeRegression>(std::move(regression).value());
  return estimator;
}

SentimentEstimator SentimentEstimator::LexiconOnly() {
  SentimentEstimator estimator;
  estimator.lexicon_weight_ = 1.0;
  return estimator;
}

Result<double> SentimentEstimator::TryScoreSentence(
    std::span<const SentimentLexicon::Row* const> rows,
    std::span<const std::string_view> tokens) const {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.sentiment.score"));
  return ScoreSentence(rows, tokens);
}

Result<double> SentimentEstimator::TryScoreSentence(
    const std::vector<std::string>& tokens) const {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.sentiment.score"));
  return ScoreSentence(AsViews(tokens));
}

double SentimentEstimator::ScoreSentence(
    std::span<const std::string_view> tokens) const {
  return Blend(lexicon().ScoreSentence(tokens), tokens);
}

double SentimentEstimator::ScoreSentence(
    std::span<const SentimentLexicon::Row* const> rows,
    std::span<const std::string_view> tokens) const {
  return Blend(lexicon().ScoreRows(rows), tokens);
}

double SentimentEstimator::Blend(
    double lexicon_score, std::span<const std::string_view> tokens) const {
  if (regression_ == nullptr || lexicon_weight_ >= 1.0) {
    return Clamp(lexicon_score, -1.0, 1.0);
  }
  double regression =
      regression_->Predict(embeddings_->SentenceVector(tokens));
  return Clamp(lexicon_weight_ * lexicon_score +
                   (1.0 - lexicon_weight_) * regression,
               -1.0, 1.0);
}

}  // namespace osrs
