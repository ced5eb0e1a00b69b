#ifndef OSRS_EXTRACTION_AHO_CORASICK_H_
#define OSRS_EXTRACTION_AHO_CORASICK_H_

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

  /// Computes failure links; must be called once after all AddPattern calls
  /// and before Find.
  void Build();

  /// The symbol AddPattern interned `token` as, or -1 when no pattern
  /// contains it.
  int SymbolOf(std::string_view token) const;

  /// All matches in a symbol sequence (SymbolOf of each token), in
  /// increasing end-position order.
  std::vector<Match> Find(std::span<const int> symbols) const;

  size_t num_patterns() const { return num_patterns_; }

 private:
  struct Node {
    std::unordered_map<int, int> next;       // token id -> state
    int fail = 0;
    std::vector<std::pair<int, size_t>> outputs;  // (payload, length)
  };

  bool built_ = false;
  size_t num_patterns_ = 0;
  StringMap<int> alphabet_;
  std::vector<Node> nodes_{Node{}};
};

}  // namespace osrs

#endif  // OSRS_EXTRACTION_AHO_CORASICK_H_
