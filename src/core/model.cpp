#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace osrs {

Status ValidateItem(const Item& item) {
  for (size_t r = 0; r < item.reviews.size(); ++r) {
    const Review& review = item.reviews[r];
    for (size_t s = 0; s < review.sentences.size(); ++s) {
      for (const ConceptSentimentPair& pair : review.sentences[s].pairs) {
        if (!std::isfinite(pair.sentiment)) {
          return Status::InvalidArgument(StrFormat(
              "item '%s' review %zu sentence %zu: non-finite sentiment",
              item.id.c_str(), r, s));
        }
        if (pair.sentiment < -1.0 || pair.sentiment > 1.0) {
          return Status::InvalidArgument(StrFormat(
              "item '%s' review %zu sentence %zu: sentiment %g outside "
              "[-1, 1]",
              item.id.c_str(), r, s, pair.sentiment));
        }
      }
    }
  }
  return Status::OK();
}

std::vector<PairOccurrence> CollectPairs(const Item& item) {
  // Count, then reserve: growing the vector by doubling costs a handful of
  // allocations and copies per solve, and far more on a cold worker.
  size_t total = 0;
  for (const Review& review : item.reviews) {
    for (const Sentence& sentence : review.sentences) {
      total += sentence.pairs.size();
    }
  }
  std::vector<PairOccurrence> out;
  out.reserve(total);
  for (size_t r = 0; r < item.reviews.size(); ++r) {
    const Review& review = item.reviews[r];
    for (size_t s = 0; s < review.sentences.size(); ++s) {
      for (const ConceptSentimentPair& pair : review.sentences[s].pairs) {
        out.push_back({pair, static_cast<int>(r), static_cast<int>(s)});
      }
    }
  }
  return out;
}

std::vector<ConceptSentimentPair> PairsOf(
    const std::vector<PairOccurrence>& occurrences) {
  std::vector<ConceptSentimentPair> out;
  out.reserve(occurrences.size());
  for (const PairOccurrence& occ : occurrences) out.push_back(occ.pair);
  return out;
}

Item TruncateReviews(const Item& item, size_t max_reviews) {
  Item out;
  out.id = item.id;
  size_t keep = std::min(max_reviews, item.reviews.size());
  out.reviews.assign(item.reviews.begin(),
                     item.reviews.begin() + static_cast<long>(keep));
  return out;
}

Item TruncateToPairBudget(const Item& item, size_t max_pairs) {
  Item out;
  out.id = item.id;
  size_t pairs = 0;
  for (const Review& review : item.reviews) {
    size_t review_pairs = 0;
    for (const Sentence& sentence : review.sentences) {
      review_pairs += sentence.pairs.size();
    }
    if (!out.reviews.empty() && pairs + review_pairs > max_pairs) break;
    out.reviews.push_back(review);
    pairs += review_pairs;
  }
  return out;
}

const char* SummaryGranularityToString(SummaryGranularity granularity) {
  switch (granularity) {
    case SummaryGranularity::kPairs:
      return "pairs";
    case SummaryGranularity::kSentences:
      return "sentences";
    case SummaryGranularity::kReviews:
      return "reviews";
  }
  return "unknown";
}

}  // namespace osrs
