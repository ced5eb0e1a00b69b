#ifndef OSRS_SENTIMENT_EMBEDDINGS_H_
#define OSRS_SENTIMENT_EMBEDDINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "text/vocabulary.h"

namespace osrs {

/// Training knobs for the co-occurrence embeddings.
struct EmbeddingOptions {
  /// Latent dimensions of the word vectors.
  int dimensions = 32;
  /// Only this many most frequent words get vectors.
  int max_vocab = 4000;
  /// Symmetric co-occurrence window (tokens on each side).
  int window = 4;
  /// Subspace (power) iterations of the randomized eigendecomposition.
  int power_iterations = 12;
  uint64_t seed = 17;
};

/// Distributed word representations from PPMI co-occurrence statistics
/// factorized with a randomized truncated eigendecomposition.
///
/// This is the repository's stand-in for the paper's doc2vec sentence
/// vectors (§5.1): fixed-size sentence representations are formed as
/// IDF-weighted averages of word vectors, then fed to the ridge-regression
/// sentiment estimator. Unsupervised, deterministic given the seed.
class CooccurrenceEmbeddings {
 public:
  /// Trains on tokenized sentences.
  static CooccurrenceEmbeddings Train(
      const std::vector<std::vector<std::string>>& sentences,
      const EmbeddingOptions& options);

  int dimensions() const { return dimensions_; }
  size_t vocabulary_size() const { return vectors_.size(); }

  bool Contains(std::string_view word) const;

  /// The word's vector; zeros for out-of-vocabulary words.
  std::vector<double> VectorOf(std::string_view word) const;

  /// IDF-weighted mean of member word vectors, L2-normalized; the zero
  /// vector when no token is in vocabulary.
  std::vector<double> SentenceVector(
      std::span<const std::string_view> tokens) const;

 private:
  CooccurrenceEmbeddings() = default;

  int dimensions_ = 0;
  Vocabulary vocabulary_;
  std::vector<int> embedding_row_;           // vocab id -> row or -1
  std::vector<std::vector<double>> vectors_; // row -> vector
  std::vector<double> idf_;                  // row -> idf weight
};

}  // namespace osrs

#endif  // OSRS_SENTIMENT_EMBEDDINGS_H_
