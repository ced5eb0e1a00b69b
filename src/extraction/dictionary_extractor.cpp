#include "extraction/dictionary_extractor.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "fault/failpoint.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace osrs {

struct DictionaryExtractor::Scratch {
  std::vector<int> symbols;
  std::vector<TokenAhoCorasick::Match> matches;
  std::vector<uint8_t> taken;  // per token: inside an accepted mention
  std::vector<Mention> mentions;
  std::vector<ConceptId> concepts;
};

DictionaryExtractor::Scratch& DictionaryExtractor::ScratchForThisThread() {
  thread_local Scratch scratch;
  return scratch;
}

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

void DictionaryExtractor::ResolveTokens(
    std::span<const std::string_view> tokens, Scratch& scratch) const {
  // Each stem is turned into its symbol at once: the memo's view of it
  // lasts only until the next Stem call.
  StemMemo& memo = StemMemo::ForThisThread();
  scratch.symbols.clear();
  for (std::string_view token : tokens) {
    scratch.symbols.push_back(automaton_.SymbolOf(memo.Stem(token)));
  }
  Resolve(scratch.symbols, scratch);
}

void DictionaryExtractor::Resolve(std::span<const int> symbols,
                                  Scratch& scratch) const {
  std::vector<TokenAhoCorasick::Match>& matches = scratch.matches;
  automaton_.Find(symbols, &matches);
  scratch.mentions.clear();
  scratch.concepts.clear();
  if (matches.empty()) return;
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
  scratch.taken.assign(symbols.size(), 0);
  for (const auto& match : matches) {
    bool overlaps = false;
    for (size_t i = match.begin; i < match.end; ++i) {
      overlaps |= scratch.taken[i] != 0;
    }
    if (overlaps) continue;
    for (size_t i = match.begin; i < match.end; ++i) scratch.taken[i] = 1;
    scratch.mentions.push_back(
        {static_cast<ConceptId>(match.payload), match.begin, match.end});
  }
  std::sort(scratch.mentions.begin(), scratch.mentions.end(),
            [](const Mention& a, const Mention& b) {
              return a.begin < b.begin;
            });
  for (const Mention& mention : scratch.mentions) {
    if (std::find(scratch.concepts.begin(), scratch.concepts.end(),
                  mention.concept_id) == scratch.concepts.end()) {
      scratch.concepts.push_back(mention.concept_id);
    }
  }
}

std::vector<DictionaryExtractor::Mention> DictionaryExtractor::FindMentions(
    std::span<const std::string_view> tokens) const {
  Scratch& scratch = ScratchForThisThread();
  ResolveTokens(tokens, scratch);
  return scratch.mentions;
}

std::vector<ConceptId> DictionaryExtractor::ExtractConcepts(
    std::span<const std::string_view> tokens) const {
  Scratch& scratch = ScratchForThisThread();
  ResolveTokens(tokens, scratch);
  return scratch.concepts;
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

Result<std::span<const ConceptId>> DictionaryExtractor::TryExtractFromSymbols(
    std::span<const int> symbols) const {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.extraction.pairs"));
  Scratch& scratch = ScratchForThisThread();
  Resolve(symbols, scratch);
  return std::span<const ConceptId>(scratch.concepts);
}

}  // namespace osrs
