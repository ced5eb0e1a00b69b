#include "api/annotator.h"

#include <string_view>
#include <utility>

#include "common/strings.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace osrs {

ReviewAnnotator::ReviewAnnotator(const Ontology* ontology,
                                 SentimentEstimator estimator)
    : extractor_(ontology), estimator_(std::move(estimator)) {}

Status ReviewAnnotator::AnnotateSentence(Sentence& sentence) const {
  sentence.pairs.clear();
  // The sentence is tokenized once, into views over a lowered copy that
  // extraction and scoring both read. The buffers are per thread because
  // one const annotator is shared by every thread that ingests.
  thread_local std::string lowered;
  thread_local std::vector<std::string_view> tokens;
  TokenizeViews(sentence.text, &lowered, &tokens);
  // The Try variants exist for exactly this call site: they put the
  // annotation phases behind failpoints so a chaos schedule can fail a
  // live request during extraction or scoring.
  Result<std::vector<ConceptId>> concepts =
      extractor_.TryExtractConcepts(tokens);
  OSRS_RETURN_IF_ERROR(concepts.status());
  if (concepts->empty()) return Status::OK();
  Result<double> sentiment = estimator_.TryScoreSentence(tokens);
  OSRS_RETURN_IF_ERROR(sentiment.status());
  sentence.pairs.reserve(concepts->size());
  for (ConceptId concept_id : *concepts) {
    sentence.pairs.push_back({concept_id, *sentiment});
  }
  return Status::OK();
}

Status ReviewAnnotator::Annotate(Item& item) const {
  for (Review& review : item.reviews) {
    for (Sentence& sentence : review.sentences) {
      OSRS_RETURN_IF_ERROR(AnnotateSentence(sentence));
    }
  }
  return Status::OK();
}

Result<Item> ReviewAnnotator::AnnotateTexts(
    const std::string& item_id, const std::vector<std::string>& review_texts,
    const std::vector<double>& ratings) const {
  if (!ratings.empty() && ratings.size() != review_texts.size()) {
    return Status::InvalidArgument(
        StrFormat("got %zu ratings for %zu reviews", ratings.size(),
                  review_texts.size()));
  }
  Item item;
  item.id = item_id;
  item.reviews.reserve(review_texts.size());
  for (size_t r = 0; r < review_texts.size(); ++r) {
    Review review;
    review.rating = ratings.empty() ? 0.0 : ratings[r];
    for (std::string& text : SplitSentences(review_texts[r])) {
      Sentence sentence;
      sentence.text = std::move(text);
      OSRS_RETURN_IF_ERROR(AnnotateSentence(sentence));
      review.sentences.push_back(std::move(sentence));
    }
    item.reviews.push_back(std::move(review));
  }
  // A misbehaving estimator (NaN, out-of-scale score) must surface here,
  // at the ingestion boundary, not deep inside a later cost sum.
  OSRS_RETURN_IF_ERROR(ValidateItem(item));
  return item;
}

}  // namespace osrs
