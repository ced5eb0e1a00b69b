#include "baselines/coverage_selector.h"

#include "common/logging.h"
#include "core/distance.h"
#include "coverage/coverage_graph.h"

namespace osrs {

CoverageGreedySelector::CoverageGreedySelector(const Ontology* ontology,
                                               double epsilon)
    : ontology_(ontology), epsilon_(epsilon) {
  OSRS_CHECK(ontology != nullptr);
  OSRS_CHECK(ontology->finalized());
}

Result<std::vector<int>> CoverageGreedySelector::Select(
    const std::vector<CandidateSentence>& sentences, int k) {
  // Flatten pairs; each non-empty sentence is a candidate owning the
  // contiguous run of its pairs.
  std::vector<ConceptSentimentPair> pairs;
  std::vector<int> group_begin;
  std::vector<int> group_to_sentence;
  for (size_t s = 0; s < sentences.size(); ++s) {
    if (sentences[s].pairs.empty()) continue;
    group_begin.push_back(static_cast<int>(pairs.size()));
    pairs.insert(pairs.end(), sentences[s].pairs.begin(),
                 sentences[s].pairs.end());
    group_to_sentence.push_back(static_cast<int>(s));
  }
  group_begin.push_back(static_cast<int>(pairs.size()));

  PairDistance distance(ontology_, epsilon_);
  Result<CoverageGraph> graph = CoverageGraph::TryBuildForGroupsWeighted(
      distance, pairs, group_begin, FoldTargets(pairs),
      CoverageBuildOptions{});
  OSRS_RETURN_IF_ERROR(graph.status());
  int effective_k = std::min<int>(k, graph->num_candidates());
  auto result = greedy_.Summarize(*graph, effective_k);
  OSRS_RETURN_IF_ERROR(result.status());

  std::vector<int> selected;
  selected.reserve(result->selected.size());
  for (int group : result->selected) {
    selected.push_back(group_to_sentence[static_cast<size_t>(group)]);
  }
  return selected;
}

}  // namespace osrs
