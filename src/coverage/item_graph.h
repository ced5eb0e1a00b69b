#ifndef OSRS_COVERAGE_ITEM_GRAPH_H_
#define OSRS_COVERAGE_ITEM_GRAPH_H_

#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"

namespace osrs {

/// A coverage graph built from one item at a chosen granularity, together
/// with the provenance needed to map selected candidates back to pairs,
/// sentences or reviews.
struct ItemGraph {
  SummaryGranularity granularity = SummaryGranularity::kPairs;
  /// The item's pairs in reading order. The graph's W side is these pairs
  /// folded into weighted targets (see TryBuildItemGraph).
  std::vector<PairOccurrence> occurrences;
  /// For sentence/review granularity: candidate c is the contiguous run
  /// occurrences[group_begin[c], group_begin[c + 1]) — CollectPairs emits
  /// pairs in reading order, so a sentence's (review's) pairs are
  /// consecutive. num_candidates + 1 offsets; empty for pair granularity
  /// (candidates are the pairs themselves).
  std::vector<int> group_begin;
  /// For sentence/review granularity: (review index, sentence index) of
  /// each candidate; sentence index is -1 at review granularity.
  std::vector<std::pair<int, int>> group_origin;
  CoverageGraph graph;
};

/// Builds the §4.1/§4.5 graph for `item`. Sentences/reviews without any
/// concept-sentiment pair are not candidates (they can never cover
/// anything), matching the candidate sets the paper's solvers see.
///
/// The target side is folded (FoldTargets): pairs with equal concept and
/// equal sentiment share one target weighted by their multiplicity, in
/// first-occurrence order. So is the candidate side: candidates whose pairs
/// carry the same fold keys share one stored row (CoverageGraph classes).
/// Candidates, `group_begin`, `group_origin` and `occurrences` are exactly
/// those of the unfolded graph, and every selection costs the same in
/// both, so greedy and local search pick the same selection bit for bit;
/// exact solvers may break ties between equal-cost optima differently.
/// `graph.num_edges()` counts the stored (folded) edges.
///
/// `options` go to the CoverageGraph TryBuild*Weighted constructors, so an
/// over-budget graph surfaces as kResourceExhausted (and the
/// "osrs.coverage.alloc" failpoint applies); `num_threads` shards the
/// build (1 = serial, 0 = hardware concurrency) with an identical graph at
/// every count.
Result<ItemGraph> TryBuildItemGraph(const PairDistance& distance,
                                    const Item& item,
                                    SummaryGranularity granularity,
                                    const CoverageBuildOptions& options);

}  // namespace osrs

#endif  // OSRS_COVERAGE_ITEM_GRAPH_H_
