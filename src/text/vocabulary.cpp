#include "text/vocabulary.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace osrs {

int Vocabulary::Add(std::string_view word) {
  auto it = index_.find(word);
  if (it == index_.end()) {
    int id = static_cast<int>(words_.size());
    words_.emplace_back(word);
    counts_.push_back(0);
    doc_frequencies_.push_back(0);
    it = index_.emplace(words_.back(), id).first;
  }
  ++counts_[static_cast<size_t>(it->second)];
  return it->second;
}

void Vocabulary::AddDocument(const std::vector<std::string>& words) {
  ++num_documents_;
  std::unordered_set<int> seen;
  for (const std::string& word : words) {
    int id = Add(word);
    if (seen.insert(id).second) {
      ++doc_frequencies_[static_cast<size_t>(id)];
    }
  }
}

int Vocabulary::IdOf(std::string_view word) const {
  auto it = index_.find(word);
  return it == index_.end() ? kUnknownWord : it->second;
}

const std::string& Vocabulary::WordOf(int id) const {
  OSRS_CHECK_GE(id, 0);
  OSRS_CHECK_LT(static_cast<size_t>(id), words_.size());
  return words_[static_cast<size_t>(id)];
}

int64_t Vocabulary::CountOf(int id) const {
  OSRS_CHECK_GE(id, 0);
  OSRS_CHECK_LT(static_cast<size_t>(id), counts_.size());
  return counts_[static_cast<size_t>(id)];
}

int64_t Vocabulary::DocFrequencyOf(int id) const {
  OSRS_CHECK_GE(id, 0);
  OSRS_CHECK_LT(static_cast<size_t>(id), doc_frequencies_.size());
  return doc_frequencies_[static_cast<size_t>(id)];
}

double Vocabulary::Idf(int id) const {
  return std::log((1.0 + static_cast<double>(num_documents_)) /
                  (1.0 + static_cast<double>(DocFrequencyOf(id)))) +
         1.0;
}

std::vector<int> Vocabulary::MostFrequent(size_t limit) const {
  std::vector<int> ids(words_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::sort(ids.begin(), ids.end(), [this](int a, int b) {
    int64_t ca = counts_[static_cast<size_t>(a)];
    int64_t cb = counts_[static_cast<size_t>(b)];
    if (ca != cb) return ca > cb;
    return a < b;
  });
  if (ids.size() > limit) ids.resize(limit);
  return ids;
}

}  // namespace osrs
