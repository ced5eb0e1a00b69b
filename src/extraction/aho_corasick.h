#ifndef OSRS_EXTRACTION_AHO_CORASICK_H_
#define OSRS_EXTRACTION_AHO_CORASICK_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/strings.h"

namespace osrs {

/// Multi-pattern matcher over token sequences (Aho-Corasick automaton whose
/// alphabet is interned tokens rather than characters).
///
/// Patterns are token sequences with an integer payload; matching scans a
/// token sequence once and reports every (pattern, span) occurrence. Tokens
/// never seen in any pattern reset the automaton (no pattern can span
/// them), which is exactly the desired semantics.
///
/// Build() flattens the automaton: the root's transitions are one dense row
/// over the alphabet, every other state's are a sorted run of (symbol,
/// target) edges in one array, and outputs are one array indexed by state.
class TokenAhoCorasick {
 public:
  /// An occurrence of pattern `payload` covering tokens [begin, end).
  struct Match {
    int payload;
    size_t begin;
    size_t end;
  };

  TokenAhoCorasick() = default;

  /// Registers a pattern before Build(). Empty patterns are ignored.
  void AddPattern(const std::vector<std::string>& tokens, int payload);

  /// Computes failure links and flattens the automaton; must be called once
  /// after all AddPattern calls and before Find.
  void Build();

  /// The symbol AddPattern interned `token` as, or -1 when no pattern
  /// contains it.
  int SymbolOf(std::string_view token) const;

  /// Replaces `*matches` with every match in a symbol sequence (SymbolOf of
  /// each token), in increasing end-position order. Callers reuse the
  /// buffer across sentences.
  void Find(std::span<const int> symbols, std::vector<Match>* matches) const;

  size_t num_patterns() const { return num_patterns_; }

 private:
  struct Edge {
    int symbol;
    int target;
  };
  struct Output {
    int payload;
    int length;  // in tokens
  };

  /// The child of `state` (not the root) on `symbol`, or -1.
  int ChildOf(int state, int symbol) const;

  bool built_ = false;
  size_t num_patterns_ = 0;
  StringMap<int> alphabet_;
  // The trie while patterns are added, freed by Build(): (state << 32 |
  // symbol) -> child, and each state's own patterns.
  std::unordered_map<uint64_t, int> trie_;
  std::vector<std::vector<Output>> patterns_{1};
  // The flat automaton. root_next_[symbol] is the root's child, 0 when it
  // has none (the root stays at the root). State s's edges are
  // edges_[edge_begin_[s], edge_begin_[s + 1]), sorted by symbol (the
  // root's run is empty); its outputs, own patterns first and then its
  // failure state's, are outputs_[output_begin_[s], output_begin_[s + 1]).
  std::vector<int> root_next_;
  std::vector<int> edge_begin_;
  std::vector<Edge> edges_;
  std::vector<int> fail_;
  std::vector<int> output_begin_;
  std::vector<Output> outputs_;
};

}  // namespace osrs

#endif  // OSRS_EXTRACTION_AHO_CORASICK_H_
