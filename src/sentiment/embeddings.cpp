#include "sentiment/embeddings.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace osrs {
namespace {

/// Sparse symmetric matrix in adjacency form: rows of (column, value).
using SparseRows = std::vector<std::vector<std::pair<int, double>>>;

/// y = A x for symmetric sparse A stored with both triangle entries.
void Multiply(const SparseRows& a, const std::vector<double>& x,
              std::vector<double>& y) {
  std::fill(y.begin(), y.end(), 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    double sum = 0.0;
    for (const auto& [j, v] : a[i]) sum += v * x[static_cast<size_t>(j)];
    y[i] = sum;
  }
}

/// Modified Gram-Schmidt orthonormalization of the columns of `basis`
/// (each an n-vector). Columns that collapse numerically are re-seeded.
void Orthonormalize(std::vector<std::vector<double>>& basis, Rng& rng) {
  for (size_t c = 0; c < basis.size(); ++c) {
    for (size_t prev = 0; prev < c; ++prev) {
      double proj = Dot(basis[c], basis[prev]);
      for (size_t i = 0; i < basis[c].size(); ++i) {
        basis[c][i] -= proj * basis[prev][i];
      }
    }
    double norm = Norm2(basis[c]);
    if (norm < 1e-12) {
      for (double& v : basis[c]) v = rng.NextGaussian();
      norm = Norm2(basis[c]);
    }
    for (double& v : basis[c]) v /= norm;
  }
}

}  // namespace

CooccurrenceEmbeddings CooccurrenceEmbeddings::Train(
    const std::vector<std::vector<std::string>>& sentences,
    const EmbeddingOptions& options) {
  OSRS_CHECK_GT(options.dimensions, 0);
  OSRS_CHECK_GT(options.window, 0);
  CooccurrenceEmbeddings emb;
  emb.dimensions_ = options.dimensions;

  // Count words and document frequencies.
  for (const auto& sentence : sentences) {
    emb.vocabulary_.AddDocument(sentence);
  }

  // Restrict to the top max_vocab words.
  std::vector<int> kept = emb.vocabulary_.MostFrequent(
      static_cast<size_t>(options.max_vocab));
  const int v = static_cast<int>(kept.size());
  emb.embedding_row_.assign(emb.vocabulary_.size(), -1);
  for (int row = 0; row < v; ++row) {
    emb.embedding_row_[static_cast<size_t>(kept[static_cast<size_t>(row)])] =
        row;
  }

  if (v == 0) return emb;

  // Windowed co-occurrence counts over kept words.
  std::vector<std::unordered_map<int, double>> counts(
      static_cast<size_t>(v));
  std::vector<double> row_totals(static_cast<size_t>(v), 0.0);
  double grand_total = 0.0;
  for (const auto& sentence : sentences) {
    std::vector<int> rows;
    rows.reserve(sentence.size());
    for (const std::string& word : sentence) {
      int id = emb.vocabulary_.IdOf(word);
      rows.push_back(id == kUnknownWord
                         ? -1
                         : emb.embedding_row_[static_cast<size_t>(id)]);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] < 0) continue;
      size_t end = std::min(rows.size(),
                            i + static_cast<size_t>(options.window) + 1);
      for (size_t j = i + 1; j < end; ++j) {
        if (rows[j] < 0) continue;
        double weight = 1.0 / static_cast<double>(j - i);  // distance decay
        counts[static_cast<size_t>(rows[i])][rows[j]] += weight;
        counts[static_cast<size_t>(rows[j])][rows[i]] += weight;
        row_totals[static_cast<size_t>(rows[i])] += weight;
        row_totals[static_cast<size_t>(rows[j])] += weight;
        grand_total += 2.0 * weight;
      }
    }
  }

  // Positive PMI transform.
  SparseRows ppmi(static_cast<size_t>(v));
  for (int i = 0; i < v; ++i) {
    for (const auto& [j, count] : counts[static_cast<size_t>(i)]) {
      double pij = count / std::max(grand_total, 1.0);
      double pi = row_totals[static_cast<size_t>(i)] /
                  std::max(grand_total, 1.0);
      double pj = row_totals[static_cast<size_t>(j)] /
                  std::max(grand_total, 1.0);
      if (pi <= 0.0 || pj <= 0.0 || pij <= 0.0) continue;
      double pmi = std::log(pij / (pi * pj));
      if (pmi > 0.0) ppmi[static_cast<size_t>(i)].emplace_back(j, pmi);
    }
  }

  // Randomized truncated eigendecomposition of the (symmetric) PPMI matrix:
  // subspace iteration on a random start, then scale the orthonormal basis
  // rows by sqrt(|eigenvalue|) to get word vectors, as in SVD-of-PPMI
  // embedding practice.
  const int d = std::min(options.dimensions, v);
  Rng rng(options.seed);
  std::vector<std::vector<double>> basis(
      static_cast<size_t>(d), std::vector<double>(static_cast<size_t>(v)));
  for (auto& column : basis) {
    for (double& value : column) value = rng.NextGaussian();
  }
  Orthonormalize(basis, rng);
  std::vector<double> scratch(static_cast<size_t>(v));
  for (int iter = 0; iter < options.power_iterations; ++iter) {
    for (auto& column : basis) {
      Multiply(ppmi, column, scratch);
      column.swap(scratch);
    }
    Orthonormalize(basis, rng);
  }
  // Rayleigh quotients approximate the top eigenvalues.
  std::vector<double> scale(static_cast<size_t>(d), 0.0);
  for (int c = 0; c < d; ++c) {
    Multiply(ppmi, basis[static_cast<size_t>(c)], scratch);
    double lambda = Dot(basis[static_cast<size_t>(c)], scratch);
    scale[static_cast<size_t>(c)] = std::sqrt(std::abs(lambda));
  }

  emb.vectors_.assign(static_cast<size_t>(v),
                      std::vector<double>(static_cast<size_t>(
                          options.dimensions)));
  emb.idf_.assign(static_cast<size_t>(v), 0.0);
  for (int row = 0; row < v; ++row) {
    for (int c = 0; c < d; ++c) {
      emb.vectors_[static_cast<size_t>(row)][static_cast<size_t>(c)] =
          basis[static_cast<size_t>(c)][static_cast<size_t>(row)] *
          scale[static_cast<size_t>(c)];
    }
    emb.idf_[static_cast<size_t>(row)] =
        emb.vocabulary_.Idf(kept[static_cast<size_t>(row)]);
  }
  return emb;
}

bool CooccurrenceEmbeddings::Contains(std::string_view word) const {
  int id = vocabulary_.IdOf(word);
  return id != kUnknownWord &&
         embedding_row_[static_cast<size_t>(id)] >= 0;
}

std::vector<double> CooccurrenceEmbeddings::VectorOf(
    std::string_view word) const {
  int id = vocabulary_.IdOf(word);
  if (id == kUnknownWord) {
    return std::vector<double>(static_cast<size_t>(dimensions_), 0.0);
  }
  int row = embedding_row_[static_cast<size_t>(id)];
  if (row < 0) {
    return std::vector<double>(static_cast<size_t>(dimensions_), 0.0);
  }
  return vectors_[static_cast<size_t>(row)];
}

std::vector<double> CooccurrenceEmbeddings::SentenceVector(
    std::span<const std::string_view> tokens) const {
  std::vector<double> out(static_cast<size_t>(dimensions_), 0.0);
  double weight_total = 0.0;
  for (std::string_view token : tokens) {
    int id = vocabulary_.IdOf(token);
    if (id == kUnknownWord) continue;
    int row = embedding_row_[static_cast<size_t>(id)];
    if (row < 0) continue;
    double weight = idf_[static_cast<size_t>(row)];
    const auto& vec = vectors_[static_cast<size_t>(row)];
    for (size_t c = 0; c < out.size(); ++c) out[c] += weight * vec[c];
    weight_total += weight;
  }
  if (weight_total > 0.0) {
    for (double& value : out) value /= weight_total;
    double norm = Norm2(out);
    if (norm > 1e-12) {
      for (double& value : out) value /= norm;
    }
  }
  return out;
}

}  // namespace osrs
