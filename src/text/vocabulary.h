#ifndef OSRS_TEXT_VOCABULARY_H_
#define OSRS_TEXT_VOCABULARY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"

namespace osrs {

/// Sentinel for "word not interned".
inline constexpr int kUnknownWord = -1;

/// Interning table mapping words to dense ids, with occurrence counts and
/// document frequencies; the shared vocabulary layer under the embedding,
/// LSA and LexRank vectorizers.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Interns `word` (adding it if new), bumps its count, and returns its id.
  int Add(std::string_view word);

  /// Bumps the document frequency of every distinct word in `words`
  /// (intern-if-new), typically called once per sentence/document.
  void AddDocument(const std::vector<std::string>& words);

  /// Id of `word`, or kUnknownWord.
  int IdOf(std::string_view word) const;

  const std::string& WordOf(int id) const;
  int64_t CountOf(int id) const;
  int64_t DocFrequencyOf(int id) const;

  size_t size() const { return words_.size(); }
  int64_t num_documents() const { return num_documents_; }

  /// Smoothed inverse document frequency: log((1 + N) / (1 + df)) + 1.
  double Idf(int id) const;

  /// Ids of the `limit` most frequent words (by total count, ties by id).
  std::vector<int> MostFrequent(size_t limit) const;

 private:
  StringMap<int> index_;
  std::vector<std::string> words_;
  std::vector<int64_t> counts_;
  std::vector<int64_t> doc_frequencies_;
  int64_t num_documents_ = 0;
};

}  // namespace osrs

#endif  // OSRS_TEXT_VOCABULARY_H_
