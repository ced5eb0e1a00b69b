#include "extraction/aho_corasick.h"

#include <deque>

#include "common/logging.h"

namespace osrs {

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
    auto [it, inserted] =
        alphabet_.emplace(token, static_cast<int>(alphabet_.size()));
    int symbol = it->second;
    auto next_it = nodes_[static_cast<size_t>(state)].next.find(symbol);
    if (next_it == nodes_[static_cast<size_t>(state)].next.end()) {
      int new_state = static_cast<int>(nodes_.size());
      nodes_[static_cast<size_t>(state)].next.emplace(symbol, new_state);
      nodes_.emplace_back();
      state = new_state;
    } else {
      state = next_it->second;
    }
  }
  nodes_[static_cast<size_t>(state)].outputs.emplace_back(payload,
                                                          tokens.size());
  ++num_patterns_;
}

void TokenAhoCorasick::Build() {
  OSRS_CHECK(!built_);
  std::deque<int> queue;
  for (const auto& [symbol, child] : nodes_[0].next) {
    nodes_[static_cast<size_t>(child)].fail = 0;
    queue.push_back(child);
  }
  while (!queue.empty()) {
    int state = queue.front();
    queue.pop_front();
    for (const auto& [symbol, child] : nodes_[static_cast<size_t>(state)].next) {
      // Follow failure links of the parent to find the child's fail state.
      int fail = nodes_[static_cast<size_t>(state)].fail;
      while (fail != 0 &&
             !nodes_[static_cast<size_t>(fail)].next.count(symbol)) {
        fail = nodes_[static_cast<size_t>(fail)].fail;
      }
      auto it = nodes_[static_cast<size_t>(fail)].next.find(symbol);
      int target = (it != nodes_[static_cast<size_t>(fail)].next.end() &&
                    it->second != child)
                       ? it->second
                       : 0;
      nodes_[static_cast<size_t>(child)].fail = target;
      // Inherit outputs from the fail state (suffix patterns).
      const auto& inherited = nodes_[static_cast<size_t>(target)].outputs;
      auto& outputs = nodes_[static_cast<size_t>(child)].outputs;
      outputs.insert(outputs.end(), inherited.begin(), inherited.end());
      queue.push_back(child);
    }
  }
  built_ = true;
}

std::vector<TokenAhoCorasick::Match> TokenAhoCorasick::Find(
    std::span<const int> symbols) const {
  OSRS_CHECK(built_);
  std::vector<Match> matches;
  int state = 0;
  for (size_t i = 0; i < symbols.size(); ++i) {
    const int symbol = symbols[i];
    if (symbol < 0) {
      state = 0;  // token absent from every pattern: hard reset
      continue;
    }
    // Follow failure links until a state has a transition on the symbol;
    // the root without one stays at the root.
    while (true) {
      const Node& node = nodes_[static_cast<size_t>(state)];
      auto it = node.next.find(symbol);
      if (it != node.next.end()) {
        state = it->second;
        break;
      }
      if (state == 0) break;
      state = node.fail;
    }
    for (const auto& [payload, length] :
         nodes_[static_cast<size_t>(state)].outputs) {
      matches.push_back({payload, i + 1 - length, i + 1});
    }
  }
  return matches;
}

}  // namespace osrs
