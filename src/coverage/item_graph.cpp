#include "coverage/item_graph.h"

#include "common/logging.h"
#include "core/cost.h"

namespace osrs {
namespace {

/// Fills everything but `graph`: occurrences, and for sentence/review
/// granularity the candidate groups. Returns the item's pairs (the multiset
/// the W side folds).
/// CollectPairs emits pairs in reading order, so each group is a
/// contiguous run of consecutive occurrences.
std::vector<ConceptSentimentPair> PrepareItemGraph(
    const Item& item, SummaryGranularity granularity, ItemGraph& out) {
  out.granularity = granularity;
  out.occurrences = CollectPairs(item);
  std::vector<ConceptSentimentPair> pairs = PairsOf(out.occurrences);
  if (granularity == SummaryGranularity::kPairs) return pairs;

  int current_review = -1;
  int current_sentence = -1;
  for (size_t i = 0; i < out.occurrences.size(); ++i) {
    const PairOccurrence& occ = out.occurrences[i];
    bool new_group =
        granularity == SummaryGranularity::kSentences
            ? (occ.review_index != current_review ||
               occ.sentence_index != current_sentence)
            : (occ.review_index != current_review);
    if (new_group) {
      out.groups.emplace_back();
      out.group_origin.emplace_back(
          occ.review_index,
          granularity == SummaryGranularity::kSentences ? occ.sentence_index
                                                        : -1);
      current_review = occ.review_index;
      current_sentence = occ.sentence_index;
    }
    out.groups.back().push_back(static_cast<int>(i));
  }
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
                                                     out.groups, targets,
                                                     options);
  OSRS_RETURN_IF_ERROR(graph.status());
  out.graph = std::move(graph).value();
  return out;
}

}  // namespace osrs
