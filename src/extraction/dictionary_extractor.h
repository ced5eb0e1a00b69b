#ifndef OSRS_EXTRACTION_DICTIONARY_EXTRACTOR_H_
#define OSRS_EXTRACTION_DICTIONARY_EXTRACTOR_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "extraction/aho_corasick.h"
#include "ontology/ontology.h"

namespace osrs {

/// Maps sentence text spans to ontology concepts by dictionary lookup —
/// the repository's stand-in for MetaMap (§5.1): MetaMap is, for this
/// pipeline's purposes, a longest-span mapper from text to UMLS/SNOMED
/// concepts via the ontology's term lexicon.
///
/// Terms and sentence tokens are Porter-stemmed so morphological variants
/// match ("charging" ↔ "charge"); sentence tokens go through the calling
/// thread's StemMemo. Overlapping candidate spans are resolved
/// longest-span-first, like MetaMap's preference for the most specific
/// mapping ("battery life" beats "battery").
///
/// Every query takes the sentence as a span of lowercase token views
/// (TokenizeViews, or AsViews of a Tokenize result).
class DictionaryExtractor {
 public:
  /// An accepted concept mention covering tokens [begin, end).
  struct Mention {
    ConceptId concept_id;
    size_t begin;
    size_t end;
  };

  /// Builds the automaton from `ontology`'s term lexicon. The ontology must
  /// be finalized and outlive the extractor.
  explicit DictionaryExtractor(const Ontology* ontology);

  /// Non-overlapping mentions in a tokenized sentence (longest span wins,
  /// leftmost on ties), in left-to-right order.
  std::vector<Mention> FindMentions(
      std::span<const std::string_view> tokens) const;

  /// Distinct concepts mentioned in the sentence, in first-mention order.
  std::vector<ConceptId> ExtractConcepts(
      std::span<const std::string_view> tokens) const;

  /// ExtractConcepts behind the "osrs.extraction.pairs" failpoint — the
  /// variant serve-time annotation calls so the chaos suite can fail or
  /// stall pair extraction like any other phase a live request crosses.
  /// Extraction itself cannot fail, so the only non-OK outcomes are
  /// injected ones.
  Result<std::vector<ConceptId>> TryExtractConcepts(
      std::span<const std::string_view> tokens) const;
  /// TryExtractConcepts over a Tokenize result, for perfbench's traced
  /// walk.
  Result<std::vector<ConceptId>> TryExtractConcepts(
      const std::vector<std::string>& tokens) const;

  const Ontology& ontology() const { return *ontology_; }

 private:
  const Ontology* ontology_;
  TokenAhoCorasick automaton_;
};

}  // namespace osrs

#endif  // OSRS_EXTRACTION_DICTIONARY_EXTRACTOR_H_
