#include "coverage/item_graph.h"

#include "common/logging.h"
#include "core/cost.h"

namespace osrs {
namespace {

/// Fills everything but `graph`: occurrences, and for sentence/review
/// granularity the candidate runs and their origins. Returns the item's
/// pairs (the multiset the W side folds). Every vector is sized before it
/// is filled: a solve on a worker that sat idle pays for each allocation
/// and page it touches.
std::vector<ConceptSentimentPair> PrepareItemGraph(
    const Item& item, SummaryGranularity granularity, ItemGraph& out) {
  out.granularity = granularity;
  out.occurrences = CollectPairs(item);
  std::vector<ConceptSentimentPair> pairs = PairsOf(out.occurrences);
  if (granularity == SummaryGranularity::kPairs) return pairs;

  const bool sentences = granularity == SummaryGranularity::kSentences;
  auto starts_run = [&](size_t i) {
    if (i == 0) return true;
    const PairOccurrence& prev = out.occurrences[i - 1];
    const PairOccurrence& occ = out.occurrences[i];
    return occ.review_index != prev.review_index ||
           (sentences && occ.sentence_index != prev.sentence_index);
  };
  size_t num_groups = 0;
  for (size_t i = 0; i < out.occurrences.size(); ++i) {
    if (starts_run(i)) ++num_groups;
  }
  out.group_begin.reserve(num_groups + 1);
  out.group_origin.reserve(num_groups);
  for (size_t i = 0; i < out.occurrences.size(); ++i) {
    if (!starts_run(i)) continue;
    const PairOccurrence& occ = out.occurrences[i];
    out.group_begin.push_back(static_cast<int>(i));
    out.group_origin.emplace_back(occ.review_index,
                                  sentences ? occ.sentence_index : -1);
  }
  out.group_begin.push_back(static_cast<int>(out.occurrences.size()));
  return pairs;
}

}  // namespace

Result<ItemGraph> TryBuildItemGraph(const PairDistance& distance,
                                    const Item& item,
                                    SummaryGranularity granularity,
                                    const CoverageBuildOptions& options) {
  ItemGraph out;
  std::vector<ConceptSentimentPair> pairs =
      PrepareItemGraph(item, granularity, out);
  const WeightedTargets targets = FoldTargets(pairs);
  Result<CoverageGraph> graph =
      granularity == SummaryGranularity::kPairs
          ? CoverageGraph::TryBuildForPairsWeighted(distance, pairs, targets,
                                                    options)
          : CoverageGraph::TryBuildForGroupsWeighted(distance, pairs,
                                                     out.group_begin, targets,
                                                     options);
  OSRS_RETURN_IF_ERROR(graph.status());
  out.graph = std::move(graph).value();
  return out;
}

}  // namespace osrs
