#ifndef OSRS_EVAL_ELBOW_H_
#define OSRS_EVAL_ELBOW_H_

#include <vector>

#include "common/execution_budget.h"
#include "common/status.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"
#include "ontology/ontology.h"

namespace osrs {

/// One sweep of the §5.3 elbow method for choosing the sentiment threshold
/// ε used by the greedy summarizer.
struct ElbowResult {
  std::vector<double> epsilons;
  /// Fraction of review pairs covered by the greedy size-k summary at each
  /// ε (non-decreasing in ε; the curve's knee is the chosen threshold).
  std::vector<double> covered_fraction;
  double chosen_epsilon = 0.0;
};

/// Runs greedy k-Pairs summaries across `epsilons` (must be increasing)
/// and picks the knee of the coverage curve by the maximum-distance-to-
/// chord rule: past the knee, raising ε stops buying coverage — the
/// "rate of covered sentences significantly drops" criterion of §5.3.
///
/// Every grid point builds its graph through
/// CoverageGraph::TryBuildForPairsWeighted over FoldTargets(pairs) (folded
/// once for the whole grid), so `options.max_memory_bytes` bounds each
/// probe graph and the "osrs.coverage.alloc" failpoint is evaluated once
/// per grid point. A failed build or solve is returned as is. Greedy on
/// the folded graph selects exactly what it selects on the unfolded one,
/// so the curve does not depend on the fold.
///
/// `budget`'s cancellation flags and deadline are checked before each grid
/// point; once either trips, the sweep stops and returns kCancelled or
/// kDeadlineExceeded without building the remaining graphs. The sweep
/// charges no work units, so a work bound never stops it.
Result<ElbowResult> SelectEpsilonByElbow(
    const Ontology& ontology, const std::vector<ConceptSentimentPair>& pairs,
    int k, std::vector<double> epsilons, const CoverageBuildOptions& options,
    const ExecutionBudget& budget = ExecutionBudget::Unlimited());

}  // namespace osrs

#endif  // OSRS_EVAL_ELBOW_H_
