#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/cost.h"
#include "core/reduction.h"
#include "coverage/coverage_graph.h"
#include "ontology/snomed_like.h"
#include "solver/exhaustive.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/kmedian_model.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

/// Random k-Pairs instance over a small synthetic ontology.
struct Instance {
  Ontology ontology;
  std::vector<ConceptSentimentPair> pairs;
};

Instance MakeInstance(uint64_t seed, int num_pairs, int num_concepts = 60) {
  SnomedLikeOptions options;
  options.num_concepts = num_concepts;
  options.max_depth = 5;
  options.seed = seed;
  Instance instance;
  instance.ontology = BuildSnomedLikeOntology(options);
  Rng rng(seed * 77 + 1);
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(instance.ontology.num_concepts() - 1));
    // Cluster sentiments around a few modes so coverage is non-trivial.
    double mode = rng.NextBernoulli(0.6) ? 0.6 : -0.4;
    double s = Clamp(mode + rng.NextGaussian(0.0, 0.3), -1.0, 1.0);
    instance.pairs.push_back({c, s});
  }
  return instance;
}

// ----------------------------------------------------------------- Greedy --

TEST(GreedyTest, RejectsBadK) {
  Instance inst = MakeInstance(1, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  GreedySummarizer greedy;
  EXPECT_FALSE(greedy.Summarize(graph, -1).ok());
  EXPECT_FALSE(greedy.Summarize(graph, 11).ok());
  EXPECT_TRUE(greedy.Summarize(graph, 10).ok());
}

TEST(GreedyTest, KZeroReturnsEmptySummary) {
  Instance inst = MakeInstance(2, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  auto result = GreedySummarizer().Summarize(graph, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->selected.empty());
  EXPECT_DOUBLE_EQ(result->cost, graph.EmptySummaryCost());
}

TEST(GreedyTest, CostMatchesGraphEvaluation) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    Instance inst = MakeInstance(seed, 40);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    auto result = GreedySummarizer().Summarize(graph, 6);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->cost, graph.CostOfSelection(result->selected), 1e-9);
    EXPECT_EQ(result->selected.size(), 6u);
    std::set<int> unique(result->selected.begin(), result->selected.end());
    EXPECT_EQ(unique.size(), 6u);
  }
}

TEST(GreedyTest, EagerAndLazyAgreeOnCost) {
  for (uint64_t seed : {6u, 7u, 8u, 9u}) {
    Instance inst = MakeInstance(seed, 60);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    GreedyOptions lazy_options;
    lazy_options.heap = GreedyOptions::Heap::kLazy;
    auto eager = GreedySummarizer().Summarize(graph, 5);
    auto lazy = GreedySummarizer(lazy_options).Summarize(graph, 5);
    ASSERT_TRUE(eager.ok());
    ASSERT_TRUE(lazy.ok());
    // Identical selections except possibly on exact gain ties; cost must
    // match because both take a maximum-gain candidate each round.
    EXPECT_NEAR(eager->cost, lazy->cost, 1e-9);
  }
}

TEST(GreedyTest, GreedyIsMonotoneInK) {
  Instance inst = MakeInstance(10, 50);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  GreedySummarizer greedy;
  double prev = graph.EmptySummaryCost();
  for (int k = 1; k <= 8; ++k) {
    auto result = greedy.Summarize(graph, k);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->cost, prev + 1e-9);
    prev = result->cost;
  }
}

TEST(GreedyTest, PrefixProperty) {
  // Greedy with k and k+1 share the first k selections (deterministic ties).
  Instance inst = MakeInstance(11, 50);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  GreedySummarizer greedy;
  auto small = greedy.Summarize(graph, 4);
  auto large = greedy.Summarize(graph, 5);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(small->selected[i], large->selected[i]);
  }
}

TEST(GreedyTest, PerPickCostsEqualDirectSolvesOnWeightedGraphs) {
  // One depth-D solve records the cost after every pick; each must be the
  // cost of a direct k-pick solve bit for bit, with the same picks, on
  // both heaps. Integer multiplicities, as FoldTargets produces.
  for (uint64_t seed : {21u, 22u, 23u}) {
    Instance inst = MakeInstance(seed, 60);
    Rng rng(seed);
    std::vector<double> weights(inst.pairs.size());
    for (double& w : weights) w = static_cast<double>(1 + rng.NextUint64(4));
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph =
        CoverageGraph::BuildForPairsWeighted(dist, inst.pairs, weights);
    for (GreedyOptions::Heap heap :
         {GreedyOptions::Heap::kEager, GreedyOptions::Heap::kLazy}) {
      GreedyOptions options;
      options.heap = heap;
      GreedySummarizer greedy(options);
      constexpr int kDepth = 12;
      auto deep = greedy.Summarize(graph, kDepth);
      ASSERT_TRUE(deep.ok());
      ASSERT_EQ(deep->prefix_costs.size(), deep->selected.size() + 1);
      EXPECT_EQ(deep->prefix_costs.front(), graph.EmptySummaryCost());
      EXPECT_EQ(deep->prefix_costs.back(), deep->cost);
      for (int k = 0; k <= kDepth; ++k) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " " + greedy.name() +
                     " k=" + std::to_string(k));
        auto direct = greedy.Summarize(graph, k);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(deep->prefix_costs[static_cast<size_t>(k)], direct->cost);
        EXPECT_EQ(std::vector<int>(deep->selected.begin(),
                                   deep->selected.begin() + k),
                  direct->selected);
        EXPECT_EQ(std::vector<double>(deep->prefix_costs.begin(),
                                      deep->prefix_costs.begin() + k + 1),
                  direct->prefix_costs);
      }
    }
  }
}

TEST(GreedyTest, MatchesExhaustiveOnEasyInstance) {
  // With k = 1 greedy IS optimal (single best candidate).
  for (uint64_t seed : {12u, 13u, 14u}) {
    Instance inst = MakeInstance(seed, 25);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    auto greedy = GreedySummarizer().Summarize(graph, 1);
    auto exact = ExhaustiveSummarizer().Summarize(graph, 1);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(greedy->cost, exact->cost, 1e-9);
  }
}

TEST(GreedyTest, WithinTheoreticalReachOfOptimal) {
  // §5.2 observes greedy within 8% of optimal; on these small instances we
  // allow a loose 25% just to catch gross regressions.
  for (uint64_t seed : {15u, 16u}) {
    Instance inst = MakeInstance(seed, 18);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    auto greedy = GreedySummarizer().Summarize(graph, 3);
    auto exact = ExhaustiveSummarizer().Summarize(graph, 3);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(greedy->cost, exact->cost * 1.25 + 1e-9);
    EXPECT_GE(greedy->cost, exact->cost - 1e-9);
  }
}

// ------------------------------------------------------------- Exhaustive --

TEST(ExhaustiveTest, FindsObviousOptimum) {
  // Chain root->a->b, pairs on a and b. k=1: picking the 'a' pair covers
  // both (a at 0, b at 1) = 1 < picking b (a covered by root at 1, b at 0).
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.AddEdge(a, b).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{a, 0.0}, {b, 0.0}};
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, pairs);
  auto result = ExhaustiveSummarizer().Summarize(graph, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected, std::vector<int>{0});
  EXPECT_DOUBLE_EQ(result->cost, 1.0);
}

TEST(ExhaustiveTest, RefusesHugeInstances) {
  Instance inst = MakeInstance(17, 40);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  ExhaustiveSummarizer tiny_budget(/*max_subsets=*/100);
  auto result = tiny_budget.Summarize(graph, 10);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// -------------------------------------------------------------------- ILP --

TEST(IlpTest, MatchesExhaustiveOnRandomInstances) {
  for (uint64_t seed : {20u, 21u, 22u, 23u}) {
    Instance inst = MakeInstance(seed, 16);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    for (int k : {1, 2, 3}) {
      auto ilp = IlpSummarizer().Summarize(graph, k);
      auto exact = ExhaustiveSummarizer().Summarize(graph, k);
      ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
      ASSERT_TRUE(exact.ok());
      EXPECT_NEAR(ilp->cost, exact->cost, 1e-6)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(IlpTest, SentenceGroupsMatchExhaustive) {
  // §4.5 variant: candidates are groups.
  for (uint64_t seed : {24u, 25u}) {
    Instance inst = MakeInstance(seed, 18);
    PairDistance dist(&inst.ontology, 0.5);
    // Groups of 3 consecutive pairs = 6 "sentences".
    std::vector<std::vector<int>> groups;
    for (int g = 0; g < 6; ++g) {
      groups.push_back({3 * g, 3 * g + 1, 3 * g + 2});
    }
    CoverageGraph graph =
        CoverageGraph::BuildForGroups(dist, inst.pairs, groups);
    auto ilp = IlpSummarizer().Summarize(graph, 2);
    auto exact = ExhaustiveSummarizer().Summarize(graph, 2);
    ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
    ASSERT_TRUE(exact.ok());
    EXPECT_NEAR(ilp->cost, exact->cost, 1e-6);
  }
}

TEST(IlpTest, RejectsBadK) {
  Instance inst = MakeInstance(26, 8);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  EXPECT_FALSE(IlpSummarizer().Summarize(graph, -2).ok());
  EXPECT_FALSE(IlpSummarizer().Summarize(graph, 100).ok());
}

// ----------------------------------------------------- k-median LP model --

TEST(KMedianModelTest, LpRelaxationLowerBoundsIlp) {
  for (uint64_t seed : {27u, 28u}) {
    Instance inst = MakeInstance(seed, 20);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    const int k = 3;
    KMedianModel model = BuildKMedianModel(graph, k, /*integral_x=*/false);
    LpSolution lp = RevisedSimplex().Solve(model.problem);
    ASSERT_EQ(lp.status, LpStatus::kOptimal);
    auto exact = ExhaustiveSummarizer().Summarize(graph, k);
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(lp.objective, exact->cost + 1e-6);
    // And the LP is bounded below by 0.
    EXPECT_GE(lp.objective, -1e-9);
  }
}

TEST(KMedianModelTest, IntegralCostFlagDetected) {
  Instance inst = MakeInstance(29, 12);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  KMedianModel model = BuildKMedianModel(graph, 2, false);
  EXPECT_TRUE(model.integral_costs);  // hop distances are integers
}

// --------------------------------------------------- Randomized rounding --

TEST(RandomizedRoundingTest, CostBetweenOptimalAndEmpty) {
  for (uint64_t seed : {30u, 31u}) {
    Instance inst = MakeInstance(seed, 20);
    PairDistance dist(&inst.ontology, 0.5);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
    const int k = 3;
    auto rr = RandomizedRoundingSummarizer().Summarize(graph, k);
    auto exact = ExhaustiveSummarizer().Summarize(graph, k);
    ASSERT_TRUE(rr.ok()) << rr.status().ToString();
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(rr->cost, exact->cost - 1e-9);
    EXPECT_LE(rr->cost, graph.EmptySummaryCost() + 1e-9);
    EXPECT_EQ(rr->selected.size(), static_cast<size_t>(k));
    std::set<int> unique(rr->selected.begin(), rr->selected.end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(k));
  }
}

TEST(RandomizedRoundingTest, DeterministicForSeed) {
  Instance inst = MakeInstance(32, 25);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  RandomizedRoundingOptions options;
  options.seed = 5;
  auto a = RandomizedRoundingSummarizer(options).Summarize(graph, 4);
  auto b = RandomizedRoundingSummarizer(options).Summarize(graph, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected, b->selected);
}

TEST(RandomizedRoundingTest, TopKStrategyIsDeterministicAndSound) {
  Instance inst = MakeInstance(34, 22);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  RandomizedRoundingOptions options;
  options.strategy = RoundingStrategy::kTopK;
  RandomizedRoundingSummarizer topk(options);
  EXPECT_EQ(topk.name(), "LP-top-k");
  auto a = topk.Summarize(graph, 3);
  auto b = topk.Summarize(graph, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected, b->selected);
  EXPECT_EQ(a->selected.size(), 3u);
  auto exact = ExhaustiveSummarizer().Summarize(graph, 3);
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(a->cost, exact->cost - 1e-9);
  EXPECT_LE(a->cost, graph.EmptySummaryCost() + 1e-9);
}

TEST(RandomizedRoundingTest, MoreTrialsNeverWorse) {
  Instance inst = MakeInstance(33, 25);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  RandomizedRoundingOptions one;
  one.seed = 5;
  one.trials = 1;
  RandomizedRoundingOptions many = one;
  many.trials = 8;
  auto a = RandomizedRoundingSummarizer(one).Summarize(graph, 4);
  auto b = RandomizedRoundingSummarizer(many).Summarize(graph, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->cost, a->cost + 1e-9);
}

// ------------------------------------------------- Degenerate graph sizes

TEST(DegenerateGraphTest, AllAlgorithmsHandleZeroCandidates) {
  // An empty pair set: no candidates, no targets, cost 0 for every k=0.
  Instance inst = MakeInstance(50, 10);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph =
      CoverageGraph::BuildForPairs(dist, std::vector<ConceptSentimentPair>{});
  EXPECT_EQ(graph.num_candidates(), 0);
  EXPECT_DOUBLE_EQ(graph.EmptySummaryCost(), 0.0);
  auto greedy = GreedySummarizer().Summarize(graph, 0);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(greedy->selected.empty());
  auto ilp = IlpSummarizer().Summarize(graph, 0);
  ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
  EXPECT_TRUE(ilp->selected.empty());
  auto rr = RandomizedRoundingSummarizer().Summarize(graph, 0);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_TRUE(rr->selected.empty());
  auto exact = ExhaustiveSummarizer().Summarize(graph, 0);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->selected.empty());
}

TEST(DegenerateGraphTest, KEqualsCandidateCount) {
  Instance inst = MakeInstance(51, 12);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  const int k = graph.num_candidates();
  auto greedy = GreedySummarizer().Summarize(graph, k);
  auto ilp = IlpSummarizer().Summarize(graph, k);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(ilp.ok()) << ilp.status().ToString();
  // Selecting everything: both achieve the all-selected cost, where each
  // pair covers itself at distance 0.
  std::vector<int> all(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) all[static_cast<size_t>(i)] = i;
  double full_cost = graph.CostOfSelection(all);
  EXPECT_DOUBLE_EQ(full_cost, 0.0);
  EXPECT_DOUBLE_EQ(greedy->cost, 0.0);
  EXPECT_NEAR(ilp->cost, 0.0, 1e-9);
}

TEST(DegenerateGraphTest, SingleCandidate) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{{a, 0.5}};
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, pairs);
  for (int k : {0, 1}) {
    auto greedy = GreedySummarizer().Summarize(graph, k);
    ASSERT_TRUE(greedy.ok());
    EXPECT_DOUBLE_EQ(greedy->cost, k == 0 ? 1.0 : 0.0);
  }
}

// ---------------------------------------------- NP-hardness reduction E2E --

TEST(ReductionSolverTest, IlpDecidesSetCover) {
  // Theorem 1, both directions, via the exact solver: the optimal k-pair
  // summary cost equals the target iff a size-k set cover exists.
  SetCoverInstance coverable;
  coverable.universe_size = 4;
  coverable.sets = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  coverable.k = 2;

  SetCoverInstance uncoverable;
  uncoverable.universe_size = 5;
  uncoverable.sets = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  uncoverable.k = 2;  // every pair of sets misses an element

  for (const auto& [instance, expect_cover] :
       {std::pair<SetCoverInstance, bool>{coverable, true},
        std::pair<SetCoverInstance, bool>{uncoverable, false}}) {
    KPairsReduction red = BuildKPairsReduction(instance);
    PairDistance dist(&red.ontology, 0.1);
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, red.pairs);
    auto result = IlpSummarizer().Summarize(graph, red.k);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (expect_cover) {
      EXPECT_NEAR(result->cost, red.target, 1e-6);
    } else {
      EXPECT_GT(result->cost, red.target + 0.5);
    }
  }
}

TEST(ReductionSolverTest, GreedySolvesEasyCovers) {
  // Greedy achieves the target on an instance where greedy set-cover works.
  SetCoverInstance instance;
  instance.universe_size = 6;
  instance.sets = {{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}};
  instance.k = 2;
  KPairsReduction red = BuildKPairsReduction(instance);
  PairDistance dist(&red.ontology, 0.1);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, red.pairs);
  auto result = GreedySummarizer().Summarize(graph, red.k);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cost, red.target, 1e-9);
}

}  // namespace
}  // namespace osrs
