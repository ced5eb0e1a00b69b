#ifndef OSRS_API_ANNOTATOR_H_
#define OSRS_API_ANNOTATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"
#include "extraction/dictionary_extractor.h"
#include "ontology/ontology.h"
#include "sentiment/estimator.h"

namespace osrs {

/// The §5.1 annotation pipeline: sentence text → tokenization → concept
/// extraction (dictionary matcher over the ontology lexicon) → sentence
/// sentiment (estimator) → concept-sentiment pairs. The sentence's
/// sentiment is assigned to every concept it mentions, exactly as the
/// paper does ("we compute the sentiment of the containing sentence and
/// assign this sentiment to the concept").
///
/// Review text is split into sentence views and each sentence is tokenized
/// once (TokenizeViews). Each token is resolved by one probe of a
/// per-thread memo to both its stem's automaton symbol and its lexicon
/// row, and extraction and scoring run over those arrays. Every buffer is
/// per thread and reused, so a const annotator can be shared by any number
/// of threads.
class ReviewAnnotator {
 public:
  /// `ontology` must outlive the annotator.
  ReviewAnnotator(const Ontology* ontology, SentimentEstimator estimator);

  /// Recomputes every sentence's pairs in place from its text. Fails only
  /// on injected faults (the osrs.extraction.pairs / osrs.sentiment.score
  /// failpoints) — on a non-OK return the item is partially annotated and
  /// should be re-annotated or dropped, never summarized as-is.
  Status Annotate(Item& item) const;

  /// Builds an annotated Item from raw review texts (sentence splitting
  /// included). `ratings` are per-review normalized star ratings in
  /// [-1, 1]; pass an empty vector when unknown (ratings default to 0).
  Result<Item> AnnotateTexts(const std::string& item_id,
                             const std::vector<std::string>& review_texts,
                             const std::vector<double>& ratings) const;

  const Ontology& ontology() const { return extractor_.ontology(); }

 private:
  Status AnnotateSentence(Sentence& sentence) const;

  DictionaryExtractor extractor_;
  SentimentEstimator estimator_;
  /// Names this annotator's automaton in the per-thread token memo: a
  /// process-wide count taken at construction and never reused, so the
  /// memo entries of a destroyed annotator never answer for one built
  /// later, at the same address or not. Copies keep it, as they hold the
  /// same automaton.
  uint64_t serial_;
};

}  // namespace osrs

#endif  // OSRS_API_ANNOTATOR_H_
