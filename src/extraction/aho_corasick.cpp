#include "extraction/aho_corasick.h"

#include <algorithm>

#include "common/logging.h"

namespace osrs {
namespace {

uint64_t TrieKey(int state, int symbol) {
  return (static_cast<uint64_t>(state) << 32) | static_cast<uint32_t>(symbol);
}

}  // namespace

int TokenAhoCorasick::SymbolOf(std::string_view token) const {
  auto it = alphabet_.find(token);
  return it == alphabet_.end() ? -1 : it->second;
}

void TokenAhoCorasick::AddPattern(const std::vector<std::string>& tokens,
                                  int payload) {
  OSRS_CHECK(!built_);
  if (tokens.empty()) return;
  int state = 0;
  for (const std::string& token : tokens) {
    auto [symbol, interned] =
        alphabet_.emplace(token, static_cast<int>(alphabet_.size()));
    auto [child, added] = trie_.emplace(TrieKey(state, symbol->second),
                                        static_cast<int>(patterns_.size()));
    if (added) patterns_.emplace_back();
    state = child->second;
  }
  patterns_[static_cast<size_t>(state)].push_back(
      {payload, static_cast<int>(tokens.size())});
  ++num_patterns_;
}

int TokenAhoCorasick::ChildOf(int state, int symbol) const {
  const Edge* first = edges_.data() + edge_begin_[static_cast<size_t>(state)];
  const Edge* last =
      edges_.data() + edge_begin_[static_cast<size_t>(state) + 1];
  const Edge* it = std::lower_bound(
      first, last, symbol,
      [](const Edge& edge, int value) { return edge.symbol < value; });
  return it != last && it->symbol == symbol ? it->target : -1;
}

void TokenAhoCorasick::Build() {
  OSRS_CHECK(!built_);
  const size_t num_states = patterns_.size();
  // Transitions: the root's into its dense row, every other state's into
  // its run of edges_ (counted, placed, then sorted by symbol).
  root_next_.assign(alphabet_.size(), 0);
  edge_begin_.assign(num_states + 1, 0);
  for (const auto& [key, child] : trie_) {
    const size_t state = static_cast<size_t>(key >> 32);
    if (state == 0) {
      root_next_[static_cast<uint32_t>(key)] = child;
    } else {
      ++edge_begin_[state + 1];
    }
  }
  for (size_t s = 0; s < num_states; ++s) edge_begin_[s + 1] += edge_begin_[s];
  edges_.resize(static_cast<size_t>(edge_begin_[num_states]));
  std::vector<int> cursor(edge_begin_.begin(), edge_begin_.end() - 1);
  for (const auto& [key, child] : trie_) {
    const size_t state = static_cast<size_t>(key >> 32);
    if (state == 0) continue;
    edges_[static_cast<size_t>(cursor[state]++)] = {
        static_cast<int>(static_cast<uint32_t>(key)), child};
  }
  for (size_t s = 1; s < num_states; ++s) {
    std::sort(edges_.begin() + edge_begin_[s],
              edges_.begin() + edge_begin_[s + 1],
              [](const Edge& a, const Edge& b) { return a.symbol < b.symbol; });
  }
  std::unordered_map<uint64_t, int>().swap(trie_);

  // Failure links breadth first. A state's failure state is shallower, so
  // its outputs are complete when the state inherits them.
  fail_.assign(num_states, 0);
  std::vector<int> queue;
  queue.reserve(num_states);
  for (int child : root_next_) {
    if (child != 0) queue.push_back(child);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t state = static_cast<size_t>(queue[head]);
    for (int e = edge_begin_[state]; e < edge_begin_[state + 1]; ++e) {
      const Edge edge = edges_[static_cast<size_t>(e)];
      // Follow failure links of the parent to find the child's fail state.
      int fail = fail_[state];
      while (fail != 0 && ChildOf(fail, edge.symbol) < 0) {
        fail = fail_[static_cast<size_t>(fail)];
      }
      const int target = fail == 0
                             ? root_next_[static_cast<size_t>(edge.symbol)]
                             : ChildOf(fail, edge.symbol);
      fail_[static_cast<size_t>(edge.target)] = target;
      // Inherit outputs from the fail state (suffix patterns).
      const std::vector<Output>& inherited =
          patterns_[static_cast<size_t>(target)];
      std::vector<Output>& outputs =
          patterns_[static_cast<size_t>(edge.target)];
      outputs.insert(outputs.end(), inherited.begin(), inherited.end());
      queue.push_back(edge.target);
    }
  }

  output_begin_.assign(num_states + 1, 0);
  for (size_t s = 0; s < num_states; ++s) {
    output_begin_[s + 1] =
        output_begin_[s] + static_cast<int>(patterns_[s].size());
    outputs_.insert(outputs_.end(), patterns_[s].begin(), patterns_[s].end());
  }
  std::vector<std::vector<Output>>().swap(patterns_);
  built_ = true;
}

void TokenAhoCorasick::Find(std::span<const int> symbols,
                            std::vector<Match>* matches) const {
  OSRS_CHECK(built_);
  matches->clear();
  int state = 0;
  for (size_t i = 0; i < symbols.size(); ++i) {
    const int symbol = symbols[i];
    if (static_cast<size_t>(symbol) >= root_next_.size()) {
      // Only -1, a token absent from every pattern, reads outside the
      // alphabet; it resets the automaton.
      OSRS_CHECK_MSG(symbol < 0, "symbol " << symbol << " of another alphabet");
      state = 0;
      continue;
    }
    // Follow failure links until a state has a transition on the symbol;
    // the root's dense row ends the walk.
    int child = -1;
    while (state != 0 && (child = ChildOf(state, symbol)) < 0) {
      state = fail_[static_cast<size_t>(state)];
    }
    state = state == 0 ? root_next_[static_cast<size_t>(symbol)] : child;
    const size_t s = static_cast<size_t>(state);
    for (int o = output_begin_[s]; o < output_begin_[s + 1]; ++o) {
      const Output& output = outputs_[static_cast<size_t>(o)];
      matches->push_back({output.payload,
                          i + 1 - static_cast<size_t>(output.length), i + 1});
    }
  }
}

}  // namespace osrs
