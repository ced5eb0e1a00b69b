#include "api/annotator.h"

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "sentiment/lexicon.h"
#include "text/porter_stemmer.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace osrs {
namespace {

/// Serials of constructed annotators, from 1: a memo slot of serial 0 is
/// empty.
std::atomic<uint64_t> next_annotator_serial{1};

/// A token as the annotation path reads it: its stem's automaton symbol
/// and its lexicon row.
struct ResolvedToken {
  int symbol;
  const SentimentLexicon::Row* row;
};

/// The per-thread memo in front of token resolution, direct-mapped like
/// StemMemo: each word hashes to one of kSlots slots holding one (annotator
/// serial, word) key and its resolution, and a word whose slot holds
/// another key is resolved and takes the slot over. Words longer than
/// kMaxWordLength bypass it, so it stays at kSlots entries of 48 bytes
/// whatever the vocabulary. The symbol depends on the annotator's
/// automaton, hence the serial in the key; the row does not (every
/// estimator scores with the one default lexicon).
class TokenMemo {
 public:
  static constexpr size_t kSlots = 4096;
  static constexpr size_t kMaxWordLength = 23;
  static_assert((kSlots & (kSlots - 1)) == 0, "slots are picked by mask");

  ResolvedToken Resolve(uint64_t serial, std::string_view word,
                        const DictionaryExtractor& extractor,
                        const SentimentLexicon& lexicon) {
    if (word.size() > kMaxWordLength) return Miss(word, extractor, lexicon);
    Slot& slot = slots_[std::hash<std::string_view>{}(word) & (kSlots - 1)];
    if (slot.serial != serial ||
        std::string_view(slot.word, slot.word_length) != word) {
      slot.serial = serial;
      slot.token = Miss(word, extractor, lexicon);
      word.copy(slot.word, word.size());
      slot.word_length = static_cast<uint8_t>(word.size());
    }
    return slot.token;
  }

 private:
  struct Slot {
    uint64_t serial = 0;
    ResolvedToken token{-1, nullptr};
    uint8_t word_length = 0;
    char word[kMaxWordLength];
  };

  /// One Porter stem, one alphabet lookup and one lexicon lookup.
  static ResolvedToken Miss(std::string_view word,
                            const DictionaryExtractor& extractor,
                            const SentimentLexicon& lexicon) {
    return {extractor.SymbolOf(PorterStem(word)), &lexicon.RowOf(word)};
  }

  std::unique_ptr<Slot[]> slots_ = std::make_unique<Slot[]>(kSlots);
};

/// The calling thread's annotation buffers, reused by every sentence: one
/// const annotator is shared by every thread that ingests.
struct AnnotationScratch {
  TokenMemo memo;
  std::vector<std::string_view> sentences;
  std::string lowered;
  std::vector<std::string_view> tokens;
  std::vector<int> symbols;
  std::vector<const SentimentLexicon::Row*> rows;
};

AnnotationScratch& ScratchForThisThread() {
  thread_local AnnotationScratch scratch;
  return scratch;
}

}  // namespace

ReviewAnnotator::ReviewAnnotator(const Ontology* ontology,
                                 SentimentEstimator estimator)
    : extractor_(ontology),
      estimator_(std::move(estimator)),
      serial_(next_annotator_serial.fetch_add(1, std::memory_order_relaxed)) {}

Status ReviewAnnotator::AnnotateSentence(Sentence& sentence) const {
  sentence.pairs.clear();
  // The sentence is tokenized once, into views over a lowered copy, and
  // each token is resolved once, to the symbol extraction reads and the
  // row scoring reads.
  AnnotationScratch& scratch = ScratchForThisThread();
  TokenizeViews(sentence.text, &scratch.lowered, &scratch.tokens);
  const SentimentLexicon& lexicon = estimator_.lexicon();
  scratch.symbols.clear();
  scratch.rows.clear();
  for (std::string_view token : scratch.tokens) {
    const ResolvedToken resolved =
        scratch.memo.Resolve(serial_, token, extractor_, lexicon);
    scratch.symbols.push_back(resolved.symbol);
    scratch.rows.push_back(resolved.row);
  }
  // The Try variants exist for exactly this call site: they put the
  // annotation phases behind failpoints so a chaos schedule can fail a
  // live request during extraction or scoring.
  Result<std::span<const ConceptId>> concepts =
      extractor_.TryExtractFromSymbols(scratch.symbols);
  OSRS_RETURN_IF_ERROR(concepts.status());
  if (concepts->empty()) return Status::OK();
  Result<double> sentiment =
      estimator_.TryScoreSentence(scratch.rows, scratch.tokens);
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
  std::vector<std::string_view>& sentences = ScratchForThisThread().sentences;
  for (size_t r = 0; r < review_texts.size(); ++r) {
    Review& review = item.reviews.emplace_back();
    review.rating = ratings.empty() ? 0.0 : ratings[r];
    SplitSentenceViews(review_texts[r], &sentences);
    review.sentences.reserve(sentences.size());
    for (std::string_view text : sentences) {
      Sentence& sentence = review.sentences.emplace_back();
      sentence.text.assign(text);
      OSRS_RETURN_IF_ERROR(AnnotateSentence(sentence));
    }
  }
  // A misbehaving estimator (NaN, out-of-scale score) must surface here,
  // at the ingestion boundary, not deep inside a later cost sum.
  OSRS_RETURN_IF_ERROR(ValidateItem(item));
  return item;
}

}  // namespace osrs
