#include "eval/elbow.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/cost.h"
#include "core/distance.h"
#include "solver/greedy.h"

namespace osrs {

Result<ElbowResult> SelectEpsilonByElbow(
    const Ontology& ontology, const std::vector<ConceptSentimentPair>& pairs,
    int k, std::vector<double> epsilons, const CoverageBuildOptions& options,
    const ExecutionBudget& budget) {
  OSRS_CHECK(!epsilons.empty());
  OSRS_CHECK(std::is_sorted(epsilons.begin(), epsilons.end()));
  ElbowResult result;
  result.epsilons = std::move(epsilons);

  const WeightedTargets targets = FoldTargets(pairs);
  GreedySummarizer greedy;
  for (double eps : result.epsilons) {
    OSRS_RETURN_IF_ERROR(budget.Check());
    PairDistance distance(&ontology, eps);
    Result<CoverageGraph> graph = CoverageGraph::TryBuildForPairsWeighted(
        distance, pairs, targets, options);
    OSRS_RETURN_IF_ERROR(graph.status());
    int effective_k = std::min<int>(k, graph->num_candidates());
    auto summary = greedy.Summarize(*graph, effective_k);
    OSRS_RETURN_IF_ERROR(summary.status());
    std::vector<ConceptSentimentPair> selected;
    for (int u : summary->selected) {
      selected.push_back(pairs[static_cast<size_t>(u)]);
    }
    result.covered_fraction.push_back(
        CoveredFraction(distance, selected, pairs));
  }

  // Knee: the point farthest from the chord between the curve's endpoints
  // (in the normalized (ε, coverage) plane).
  const size_t n = result.epsilons.size();
  if (n == 1) {
    result.chosen_epsilon = result.epsilons[0];
    return result;
  }
  double x0 = result.epsilons.front(), x1 = result.epsilons.back();
  double y0 = result.covered_fraction.front(),
         y1 = result.covered_fraction.back();
  double x_span = std::max(x1 - x0, 1e-12);
  double y_span = std::max(std::abs(y1 - y0), 1e-12);
  double best_distance = -1.0;
  size_t best_index = 0;
  for (size_t i = 0; i < n; ++i) {
    double x = (result.epsilons[i] - x0) / x_span;
    double y = (result.covered_fraction[i] - y0) / y_span;
    // Distance from the normalized chord y = x (endpoints (0,0)-(1,1)).
    double distance = std::abs(y - x) / std::sqrt(2.0);
    if (distance > best_distance) {
      best_distance = distance;
      best_index = i;
    }
  }
  result.chosen_epsilon = result.epsilons[best_index];
  return result;
}

}  // namespace osrs
