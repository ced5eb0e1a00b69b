#include "eval/sentiment_eval.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "text/tokenizer.h"

namespace osrs {

SentimentEvalResult EvaluateSentiment(
    const SentimentEstimator& estimator,
    const std::vector<std::vector<std::string>>& sentences,
    const std::vector<double>& references) {
  OSRS_CHECK_EQ(sentences.size(), references.size());
  SentimentEvalResult result;
  result.num_sentences = sentences.size();
  if (sentences.empty()) return result;

  std::vector<double> predictions;
  predictions.reserve(sentences.size());
  double abs_error = 0.0;
  size_t polar = 0, polar_hits = 0;
  for (size_t i = 0; i < sentences.size(); ++i) {
    double predicted = estimator.ScoreSentence(AsViews(sentences[i]));
    predictions.push_back(predicted);
    abs_error += std::abs(predicted - references[i]);
    if (std::abs(references[i]) > 0.25) {
      ++polar;
      if ((predicted >= 0.0) == (references[i] >= 0.0)) ++polar_hits;
    }
  }
  result.mean_absolute_error =
      abs_error / static_cast<double>(sentences.size());
  result.polarity_accuracy =
      polar == 0 ? 0.0
                 : static_cast<double>(polar_hits) / static_cast<double>(polar);

  // Pearson correlation.
  double mean_p = Mean(predictions);
  double mean_r = Mean(references);
  double cov = 0.0, var_p = 0.0, var_r = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    double dp = predictions[i] - mean_p;
    double dr = references[i] - mean_r;
    cov += dp * dr;
    var_p += dp * dp;
    var_r += dr * dr;
  }
  if (var_p > 1e-12 && var_r > 1e-12) {
    result.pearson = cov / std::sqrt(var_p * var_r);
  }
  return result;
}

}  // namespace osrs
