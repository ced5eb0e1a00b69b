#include "extraction/dictionary_extractor.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/failpoint.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace osrs {

DictionaryExtractor::DictionaryExtractor(const Ontology* ontology)
    : ontology_(ontology) {
  OSRS_CHECK(ontology != nullptr);
  OSRS_CHECK(ontology->finalized());
  for (const auto& [term, concept_id] : ontology->term_lexicon()) {
    std::vector<std::string> stems = Tokenize(term);
    for (std::string& stem : stems) stem = PorterStem(stem);
    automaton_.AddPattern(stems, static_cast<int>(concept_id));
  }
  automaton_.Build();
}

std::vector<DictionaryExtractor::Mention> DictionaryExtractor::FindMentions(
    std::span<const std::string_view> tokens) const {
  // Each stem is turned into its symbol at once: the memo's view of it
  // lasts only until the next Stem call.
  StemMemo& memo = StemMemo::ForThisThread();
  std::vector<int> symbols;
  symbols.reserve(tokens.size());
  for (std::string_view token : tokens) {
    symbols.push_back(automaton_.SymbolOf(memo.Stem(token)));
  }
  std::vector<TokenAhoCorasick::Match> matches = automaton_.Find(symbols);
  if (matches.empty()) return {};
  // Longest-span-first resolution; ties to the leftmost, then the smaller
  // concept id for determinism.
  std::sort(matches.begin(), matches.end(),
            [](const TokenAhoCorasick::Match& a,
               const TokenAhoCorasick::Match& b) {
              size_t len_a = a.end - a.begin;
              size_t len_b = b.end - b.begin;
              if (len_a != len_b) return len_a > len_b;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.payload < b.payload;
            });
  std::vector<bool> taken(tokens.size(), false);
  std::vector<Mention> mentions;
  for (const auto& match : matches) {
    bool overlaps = false;
    for (size_t i = match.begin; i < match.end; ++i) {
      overlaps |= taken[i];
    }
    if (overlaps) continue;
    for (size_t i = match.begin; i < match.end; ++i) taken[i] = true;
    mentions.push_back(
        {static_cast<ConceptId>(match.payload), match.begin, match.end});
  }
  std::sort(mentions.begin(), mentions.end(),
            [](const Mention& a, const Mention& b) {
              return a.begin < b.begin;
            });
  return mentions;
}

std::vector<ConceptId> DictionaryExtractor::ExtractConcepts(
    std::span<const std::string_view> tokens) const {
  std::vector<ConceptId> concepts;
  for (const Mention& mention : FindMentions(tokens)) {
    if (std::find(concepts.begin(), concepts.end(), mention.concept_id) ==
        concepts.end()) {
      concepts.push_back(mention.concept_id);
    }
  }
  return concepts;
}

Result<std::vector<ConceptId>> DictionaryExtractor::TryExtractConcepts(
    std::span<const std::string_view> tokens) const {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.extraction.pairs"));
  return ExtractConcepts(tokens);
}

Result<std::vector<ConceptId>> DictionaryExtractor::TryExtractConcepts(
    const std::vector<std::string>& tokens) const {
  return TryExtractConcepts(AsViews(tokens));
}

}  // namespace osrs
