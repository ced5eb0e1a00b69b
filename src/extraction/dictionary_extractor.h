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
/// Every query maps its tokens to automaton symbols (SymbolOf of each
/// token's stem) and runs one symbol-level core: automaton matches, then
/// longest-span resolution, then distinct concepts in first-mention order,
/// all in buffers the calling thread reuses. The token queries take the
/// sentence as a span of lowercase token views (TokenizeViews, or AsViews
/// of a Tokenize result); TryExtractFromSymbols takes the symbols.
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

  /// The automaton symbol of a stemmed token, or -1 when no term contains
  /// it.
  int SymbolOf(std::string_view stem) const {
    return automaton_.SymbolOf(stem);
  }

  /// Non-overlapping mentions in a tokenized sentence (longest span wins,
  /// leftmost on ties), in left-to-right order.
  std::vector<Mention> FindMentions(
      std::span<const std::string_view> tokens) const;

  /// Distinct concepts mentioned in the sentence, in first-mention order.
  std::vector<ConceptId> ExtractConcepts(
      std::span<const std::string_view> tokens) const;

  /// ExtractConcepts behind the "osrs.extraction.pairs" failpoint, which is
  /// evaluated before extraction. Extraction itself cannot fail, so the
  /// only non-OK outcomes are injected ones.
  Result<std::vector<ConceptId>> TryExtractConcepts(
      std::span<const std::string_view> tokens) const;
  /// TryExtractConcepts over a Tokenize result, for perfbench's traced
  /// walk.
  Result<std::vector<ConceptId>> TryExtractConcepts(
      const std::vector<std::string>& tokens) const;

  /// TryExtractConcepts of a sentence given as its symbols — the variant
  /// serve-time annotation calls, so the chaos suite can fail or stall pair
  /// extraction like any other phase a live request crosses. The concepts
  /// live in the calling thread's buffers and stay valid until its next
  /// call into this class.
  Result<std::span<const ConceptId>> TryExtractFromSymbols(
      std::span<const int> symbols) const;

  const Ontology& ontology() const { return *ontology_; }

 private:
  /// The calling thread's buffers of Resolve (defined in the .cpp).
  struct Scratch;
  static Scratch& ScratchForThisThread();

  /// The symbols of `tokens`' stems, through the calling thread's StemMemo,
  /// into `scratch`.
  void ResolveTokens(std::span<const std::string_view> tokens,
                     Scratch& scratch) const;

  /// The one matching core: fills `scratch`'s mentions (left to right) and
  /// concepts (first-mention order) from `symbols`.
  void Resolve(std::span<const int> symbols, Scratch& scratch) const;

  const Ontology* ontology_;
  TokenAhoCorasick automaton_;
};

}  // namespace osrs

#endif  // OSRS_EXTRACTION_DICTIONARY_EXTRACTOR_H_
