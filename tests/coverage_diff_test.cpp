// Differential tests of the fast-path coverage-graph builder (§4.1):
// precomputed ancestor closure + binary-searched sentiment windows +
// sharded parallel build, checked against a naive reference builder that
// shares no code with the production path (its ancestor distances come
// from a fresh upward BFS per query, its edges from an O(|U|·|W|) scan).
// Every comparison runs at 1, 2 and 8 threads and demands identical
// graphs — same edges, same weights, same CSR order.
//
// The item-graph tests then check the folded production graph
// (TryBuildItemGraph: equal pairs share one weighted target, and
// candidates with equal fold keys share one class row) against the
// unfolded raw builders: the same graph up to the fold, and the same
// answers from every solver — greedy bit for bit down to its per-pick
// costs, work counter and work cut-offs. The last test does the same for
// the auto_epsilon elbow probe, which builds its grid graphs folded too.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "core/cost.h"
#include "coverage/coverage_graph.h"
#include "coverage/item_graph.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/doctor_corpus.h"
#include "eval/elbow.h"
#include "lp/simplex.h"
#include "ontology/ontology.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/kmedian_model.h"
#include "solver/local_search.h"
#include "solver/randomized_rounding.h"

namespace osrs {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// Naive reference implementation.

/// Shortest directed path length from `ancestor` down to `descendant` via
/// upward BFS over parents(); -1 when not an ancestor-or-self. Independent
/// of Ontology's precomputed closure.
int NaiveAncestorDistance(const Ontology& onto, ConceptId ancestor,
                          ConceptId descendant) {
  std::vector<int> dist(onto.num_concepts(), -1);
  dist[static_cast<size_t>(descendant)] = 0;
  std::vector<ConceptId> frontier{descendant};
  int hops = 0;
  while (!frontier.empty()) {
    if (dist[static_cast<size_t>(ancestor)] >= 0) {
      return dist[static_cast<size_t>(ancestor)];
    }
    std::vector<ConceptId> next;
    ++hops;
    for (ConceptId c : frontier) {
      for (ConceptId parent : onto.parents(c)) {
        if (dist[static_cast<size_t>(parent)] < 0) {
          dist[static_cast<size_t>(parent)] = hops;
          next.push_back(parent);
        }
      }
    }
    frontier = std::move(next);
  }
  return dist[static_cast<size_t>(ancestor)];
}

/// One reference edge; sorted comparisons use the derived ordering.
struct RefEdge {
  int candidate;
  int target;
  double weight;

  bool operator<(const RefEdge& other) const {
    return std::tie(candidate, target) <
           std::tie(other.candidate, other.target);
  }
};

/// All (u, w, weight) edges of the pairs graph by definition: u covers w
/// iff u's concept is an ancestor-or-self of w's concept and (u's concept
/// is the root or |s_u - s_w| <= eps).
std::vector<RefEdge> NaivePairsEdges(
    const Ontology& onto, const std::vector<ConceptSentimentPair>& pairs,
    double eps) {
  std::vector<RefEdge> edges;
  for (int u = 0; u < static_cast<int>(pairs.size()); ++u) {
    for (int w = 0; w < static_cast<int>(pairs.size()); ++w) {
      const auto& source = pairs[static_cast<size_t>(u)];
      const auto& target = pairs[static_cast<size_t>(w)];
      int d = NaiveAncestorDistance(onto, source.concept_id,
                                    target.concept_id);
      if (d < 0) continue;
      if (source.concept_id != onto.root() &&
          std::abs(source.sentiment - target.sentiment) > eps) {
        continue;
      }
      edges.push_back({u, w, static_cast<double>(d)});
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Group-level edges: min weight over the group's member pairs.
std::vector<RefEdge> NaiveGroupEdges(
    const Ontology& onto, const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<std::vector<int>>& groups, double eps) {
  std::vector<RefEdge> pair_edges = NaivePairsEdges(onto, pairs, eps);
  std::vector<int> group_of(pairs.size(), -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int member : groups[g]) {
      group_of[static_cast<size_t>(member)] = static_cast<int>(g);
    }
  }
  std::map<std::pair<int, int>, double> best;
  for (const RefEdge& e : pair_edges) {
    int g = group_of[static_cast<size_t>(e.candidate)];
    if (g < 0) continue;
    auto [it, inserted] = best.emplace(std::make_pair(g, e.target), e.weight);
    if (!inserted) it->second = std::min(it->second, e.weight);
  }
  std::vector<RefEdge> edges;
  edges.reserve(best.size());
  for (const auto& [key, weight] : best) {
    edges.push_back({key.first, key.second, weight});
  }
  return edges;  // map iteration is already (candidate, target)-sorted
}

/// Flattens a CoverageGraph's forward CSR into sorted reference edges.
std::vector<RefEdge> GraphEdges(const CoverageGraph& graph) {
  std::vector<RefEdge> edges;
  edges.reserve(graph.num_edges());
  for (int u = 0; u < graph.num_candidates(); ++u) {
    for (const auto& e : graph.EdgesOf(u)) {
      edges.push_back({u, e.endpoint, e.weight});
    }
  }
  return edges;  // CSR order is already (candidate, target)-sorted
}

void ExpectEdgesEqual(const std::vector<RefEdge>& expected,
                      const CoverageGraph& graph, const char* context) {
  std::vector<RefEdge> actual = GraphEdges(graph);
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].candidate, actual[i].candidate) << context;
    EXPECT_EQ(expected[i].target, actual[i].target) << context;
    EXPECT_DOUBLE_EQ(expected[i].weight, actual[i].weight) << context;
  }
  // The backward CSR must mirror the stored (class) rows exactly.
  size_t backward_total = 0;
  for (int w = 0; w < graph.num_targets(); ++w) {
    for (const auto& e : graph.CoveringOf(w)) {
      ++backward_total;
      bool found = false;
      for (const auto& f :
           CoverageGraph::EdgeRange(graph.ClassLanesOf(e.endpoint))) {
        if (f.endpoint == w && f.weight == e.weight) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << context << " backward edge (class " << e.endpoint
                         << ", " << w << ") has no forward twin";
    }
  }
  EXPECT_EQ(backward_total, graph.num_edges()) << context;
  size_t class_total = 0;
  for (int c = 0; c < graph.num_classes(); ++c) {
    class_total += graph.ClassLanesOf(c).size;
  }
  EXPECT_EQ(class_total, graph.num_edges()) << context;
}

// ---------------------------------------------------------------------------
// Randomized instance generation.

/// A random rooted DAG: concept i > 0 draws one parent among 0..i-1, plus a
/// second distinct parent with probability `multi_parent_prob` (diamonds,
/// multi-path ancestors of different lengths).
Ontology RandomOntology(Rng& rng, int num_concepts,
                        double multi_parent_prob) {
  Ontology onto;
  for (int i = 0; i < num_concepts; ++i) {
    onto.AddConcept("c" + std::to_string(i));
  }
  for (int i = 1; i < num_concepts; ++i) {
    ConceptId first = static_cast<ConceptId>(rng.NextUint64(
        static_cast<uint64_t>(i)));
    EXPECT_TRUE(onto.AddEdge(first, static_cast<ConceptId>(i)).ok());
    if (i > 1 && rng.NextBernoulli(multi_parent_prob)) {
      ConceptId second = static_cast<ConceptId>(rng.NextUint64(
          static_cast<uint64_t>(i)));
      if (second != first) {
        EXPECT_TRUE(onto.AddEdge(second, static_cast<ConceptId>(i)).ok());
      }
    }
  }
  EXPECT_TRUE(onto.Finalize().ok());
  return onto;
}

/// Sentiments drawn from the exact grid {-1, -0.875, ..., 1} (multiples of
/// 1/8, exactly representable). With eps also a multiple of 1/8, the
/// |Δs| == eps boundary of Definition 1 is hit exactly — the cases where a
/// sloppy window filter would diverge from the linear-scan reference.
std::vector<ConceptSentimentPair> RandomPairs(Rng& rng, const Ontology& onto,
                                              int num_pairs) {
  std::vector<ConceptSentimentPair> pairs;
  pairs.reserve(static_cast<size_t>(num_pairs));
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId concept_id =
        static_cast<ConceptId>(rng.NextUint64(onto.num_concepts()));
    double sentiment =
        -1.0 + 0.125 * static_cast<double>(rng.NextUint64(17));
    pairs.push_back({concept_id, sentiment});
  }
  return pairs;
}

/// Partitions pair indices into random contiguous groups of size 1..4 (the
/// shape TryBuildItemGraph produces: contiguous runs in reading order).
std::vector<std::vector<int>> RandomGroups(Rng& rng, size_t num_pairs) {
  std::vector<std::vector<int>> groups;
  size_t i = 0;
  while (i < num_pairs) {
    size_t size = 1 + rng.NextUint64(4);
    groups.emplace_back();
    for (size_t j = 0; j < size && i < num_pairs; ++j, ++i) {
      groups.back().push_back(static_cast<int>(i));
    }
  }
  return groups;
}

/// Offsets of contiguous groups: group g owns [begin[g], begin[g + 1]).
std::vector<int> RunOffsets(const std::vector<std::vector<int>>& groups) {
  std::vector<int> begin;
  for (const std::vector<int>& group : groups) begin.push_back(group.front());
  begin.push_back(groups.empty() ? 0 : groups.back().back() + 1);
  return begin;
}

/// Member lists of the runs `group_begin` describes (ItemGraph form), for
/// the unfolded reference builder.
std::vector<std::vector<int>> RunMembers(const std::vector<int>& group_begin) {
  std::vector<std::vector<int>> groups;
  for (size_t g = 0; g + 1 < group_begin.size(); ++g) {
    groups.emplace_back();
    for (int i = group_begin[g]; i < group_begin[g + 1]; ++i) {
      groups.back().push_back(i);
    }
  }
  return groups;
}

// ---------------------------------------------------------------------------
// Tests.

TEST(CoverageDiffTest, PairsMatchNaiveReferenceRandomized) {
  Rng rng(20260806);
  const double eps_grid[] = {0.125, 0.25, 0.5};
  for (int round = 0; round < 24; ++round) {
    int num_concepts = 1 + static_cast<int>(rng.NextUint64(40));
    int num_pairs = static_cast<int>(rng.NextUint64(121));
    double multi_parent_prob = 0.25 * rng.NextDouble();
    double eps = eps_grid[rng.NextUint64(3)];
    Ontology onto = RandomOntology(rng, num_concepts, multi_parent_prob);
    std::vector<ConceptSentimentPair> pairs =
        RandomPairs(rng, onto, num_pairs);
    PairDistance dist(&onto, eps);
    std::vector<RefEdge> expected = NaivePairsEdges(onto, pairs, eps);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("round " + std::to_string(round) + " threads " +
                   std::to_string(threads));
      CoverageGraph graph = CoverageGraph::BuildForPairs(dist, pairs, threads);
      ASSERT_EQ(graph.num_candidates(), num_pairs);
      ASSERT_EQ(graph.num_targets(), num_pairs);
      ExpectEdgesEqual(expected, graph, "pairs");
    }
  }
}

TEST(CoverageDiffTest, GroupsMatchNaiveReferenceRandomized) {
  Rng rng(4242);
  for (int round = 0; round < 16; ++round) {
    int num_concepts = 2 + static_cast<int>(rng.NextUint64(30));
    int num_pairs = static_cast<int>(rng.NextUint64(101));
    Ontology onto = RandomOntology(rng, num_concepts, 0.15);
    std::vector<ConceptSentimentPair> pairs =
        RandomPairs(rng, onto, num_pairs);
    std::vector<std::vector<int>> groups = RandomGroups(rng, pairs.size());
    PairDistance dist(&onto, 0.25);
    std::vector<RefEdge> expected = NaiveGroupEdges(onto, pairs, groups, 0.25);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("round " + std::to_string(round) + " threads " +
                   std::to_string(threads));
      CoverageGraph graph =
          CoverageGraph::BuildForGroups(dist, pairs, groups, threads);
      ASSERT_EQ(graph.num_candidates(), static_cast<int>(groups.size()));
      ASSERT_EQ(graph.num_targets(), num_pairs);
      ExpectEdgesEqual(expected, graph, "groups");
      // The same groups as contiguous runs, over unit-weight targets: the
      // offsets path builds the same edges.
      CoverageBuildOptions options;
      options.num_threads = threads;
      Result<CoverageGraph> runs = CoverageGraph::TryBuildForGroupsWeighted(
          dist, pairs, RunOffsets(groups),
          {pairs, std::vector<double>(pairs.size(), 1.0), {}}, options);
      ASSERT_TRUE(runs.ok()) << runs.status().ToString();
      ASSERT_EQ(runs->num_candidates(), static_cast<int>(groups.size()));
      ExpectEdgesEqual(expected, *runs, "runs");
    }
  }
}

TEST(CoverageDiffTest, ExactEpsilonBoundaryIsCovered) {
  // |Δs| == eps exactly (all values binary-representable): Definition 1
  // uses <=, so the boundary pair must be covered — at every thread count,
  // and regardless of the window filter's slack handling.
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  const double eps = 0.25;
  PairDistance dist(&onto, eps);
  std::vector<ConceptSentimentPair> pairs{
      {a, 0.5},     // 0: covers 1 (|Δs| = eps exactly) and 2 (= eps)
      {a, 0.25},    // 1
      {a, 0.75},    // 2
      {a, 0.8125},  // 3: |Δs| = 0.3125 > eps from 0
      {a, -0.25},   // 4: far side
  };
  std::vector<RefEdge> expected = NaivePairsEdges(onto, pairs, eps);
  // Sanity: the boundary edges really are present in the reference.
  auto has_edge = [&](int u, int w) {
    return std::any_of(expected.begin(), expected.end(), [&](const RefEdge& e) {
      return e.candidate == u && e.target == w;
    });
  };
  EXPECT_TRUE(has_edge(0, 1));
  EXPECT_TRUE(has_edge(0, 2));
  EXPECT_FALSE(has_edge(0, 3));
  EXPECT_FALSE(has_edge(0, 4));
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectEdgesEqual(expected,
                     CoverageGraph::BuildForPairs(dist, pairs, threads),
                     "eps boundary");
  }
}

TEST(CoverageDiffTest, MultiParentDiamondUsesShortestPath) {
  // root -> a -> b -> d and root -> d: d has ancestors at distances
  // {d:0, b:1, a:2, root:1} — the closure must keep the min distance.
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ConceptId d = onto.AddConcept("d");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.AddEdge(a, b).ok());
  ASSERT_TRUE(onto.AddEdge(b, d).ok());
  ASSERT_TRUE(onto.AddEdge(root, d).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  std::vector<ConceptSentimentPair> pairs{
      {root, 0.0}, {a, 0.0}, {b, 0.0}, {d, 0.0}};
  std::vector<RefEdge> expected = NaivePairsEdges(onto, pairs, 0.5);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CoverageGraph graph = CoverageGraph::BuildForPairs(dist, pairs, threads);
    ExpectEdgesEqual(expected, graph, "diamond");
    // Root reaches d in 1 hop (direct edge), not 3 (via a, b).
    bool found = false;
    for (const auto& e : graph.EdgesOf(0)) {
      if (e.endpoint == 3) {
        EXPECT_DOUBLE_EQ(e.weight, 1.0);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(CoverageDiffTest, DegenerateInstances) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Empty instance.
    CoverageGraph empty = CoverageGraph::BuildForPairs(dist, {}, threads);
    EXPECT_EQ(empty.num_candidates(), 0);
    EXPECT_EQ(empty.num_targets(), 0);
    EXPECT_EQ(empty.num_edges(), 0u);
    // Single self-covering pair (fewer targets than threads).
    std::vector<ConceptSentimentPair> one{{a, 0.5}};
    CoverageGraph single = CoverageGraph::BuildForPairs(dist, one, threads);
    EXPECT_EQ(single.num_candidates(), 1);
    ASSERT_EQ(single.EdgesOf(0).size(), 1u);
    EXPECT_EQ(single.EdgesOf(0)[0].endpoint, 0);
    EXPECT_DOUBLE_EQ(single.EdgesOf(0)[0].weight, 0.0);
    // Groups over an empty pair set.
    CoverageGraph groups =
        CoverageGraph::BuildForGroups(dist, {}, {}, threads);
    EXPECT_EQ(groups.num_candidates(), 0);
    EXPECT_EQ(groups.num_targets(), 0);
  }
}

TEST(CoverageDiffTest, ThreadCountsProduceIdenticalGraphs) {
  // One larger instance: the serial graph is the baseline and every other
  // thread count must reproduce it edge-for-edge (same order, same
  // weights), including the weighted builder's target weights.
  Rng rng(99);
  Ontology onto = RandomOntology(rng, 120, 0.2);
  std::vector<ConceptSentimentPair> pairs = RandomPairs(rng, onto, 900);
  std::vector<std::vector<int>> groups = RandomGroups(rng, pairs.size());
  std::vector<double> weights(pairs.size());
  for (double& weight : weights) weight = 1.0 + rng.NextDouble();
  PairDistance dist(&onto, 0.375);

  CoverageGraph base = CoverageGraph::BuildForPairs(dist, pairs, 1);
  CoverageGraph base_groups =
      CoverageGraph::BuildForGroups(dist, pairs, groups, 1);
  std::vector<RefEdge> base_edges = GraphEdges(base);
  std::vector<RefEdge> base_group_edges = GraphEdges(base_groups);
  for (int threads : {0, 2, 3, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectEdgesEqual(base_edges,
                     CoverageGraph::BuildForPairs(dist, pairs, threads),
                     "pairs vs serial");
    ExpectEdgesEqual(
        base_group_edges,
        CoverageGraph::BuildForGroups(dist, pairs, groups, threads),
        "groups vs serial");
    CoverageGraph weighted =
        CoverageGraph::BuildForPairsWeighted(dist, pairs, weights, threads);
    ExpectEdgesEqual(base_edges, weighted, "weighted vs serial");
    for (size_t w = 0; w < weights.size(); ++w) {
      ASSERT_DOUBLE_EQ(weighted.target_weight(static_cast<int>(w)),
                       weights[w]);
    }
    // Cost identity on a random selection — the solver-facing contract.
    std::vector<int> selection;
    for (int u = 0; u < base.num_candidates(); u += 7) selection.push_back(u);
    EXPECT_DOUBLE_EQ(
        base.CostOfSelection(selection),
        CoverageGraph::BuildForPairs(dist, pairs, threads)
            .CostOfSelection(selection));
  }
}

// ---------------------------------------------------------------------------
// Folded item graphs vs the unfolded raw builders.

/// Forces a kernel backend for the enclosing scope; on hosts or builds
/// without AVX2 a kAvx2 request degrades to scalar.
class ScopedBackend {
 public:
  explicit ScopedBackend(simd::Backend backend) {
    simd::ForceBackend(backend);
  }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  ~ScopedBackend() { simd::ResetBackendOverride(); }
};

/// A random item whose sentiments sit on the coarse grid {-1, -0.75, ...,
/// 1} plus -0.0 (next to the grid's +0.0), over a handful of concepts, so
/// exact duplicates are common; with eps a multiple of 1/4 the |Δs| == eps
/// boundary of Definition 1 occurs exactly. Some sentences carry no pair
/// (they are not candidates).
Item RandomGridItem(Rng& rng, const Ontology& onto) {
  Item item;
  item.id = "grid";
  const int num_reviews = 1 + static_cast<int>(rng.NextUint64(7));
  for (int r = 0; r < num_reviews; ++r) {
    Review review;
    const int num_sentences = 1 + static_cast<int>(rng.NextUint64(4));
    for (int s = 0; s < num_sentences; ++s) {
      Sentence sentence;
      sentence.text = "r" + std::to_string(r) + "s" + std::to_string(s);
      const int num_pairs = static_cast<int>(rng.NextUint64(4));
      for (int p = 0; p < num_pairs; ++p) {
        ConceptId concept_id =
            static_cast<ConceptId>(rng.NextUint64(onto.num_concepts()));
        uint64_t step = rng.NextUint64(10);
        double sentiment =
            step == 9 ? -0.0 : -1.0 + 0.25 * static_cast<double>(step);
        sentence.pairs.push_back({concept_id, sentiment});
      }
      review.sentences.push_back(std::move(sentence));
    }
    item.reviews.push_back(std::move(review));
  }
  return item;
}

/// The reference fold, by definition: pair w joins the target of the first
/// earlier pair equal to it under operator==, else opens a new target.
/// Returns the target index of every pair.
std::vector<int> NaiveFold(const std::vector<ConceptSentimentPair>& pairs,
                           std::vector<double>* weights) {
  std::vector<int> target_of(pairs.size(), -1);
  weights->clear();
  for (size_t w = 0; w < pairs.size(); ++w) {
    for (size_t earlier = 0; earlier < w; ++earlier) {
      if (pairs[earlier] == pairs[w]) {
        target_of[w] = target_of[earlier];
        break;
      }
    }
    if (target_of[w] < 0) {
      target_of[w] = static_cast<int>(weights->size());
      weights->push_back(0.0);
    }
    (*weights)[static_cast<size_t>(target_of[w])] += 1.0;
  }
  return target_of;
}

/// The folded graph must be the raw graph with equal targets merged: same
/// candidates, target weights equal to the reference fold's multiplicities
/// (summing to the pair count), equal root distances, and every raw edge
/// (u, w, d) present as (u, fold(w), d) — with each candidate's folded row
/// weighing exactly its raw degree, so nothing else is there.
void ExpectFoldOf(const CoverageGraph& raw,
                  const std::vector<ConceptSentimentPair>& pairs,
                  const CoverageGraph& folded) {
  std::vector<double> weights;
  const std::vector<int> target_of = NaiveFold(pairs, &weights);
  ASSERT_EQ(folded.num_candidates(), raw.num_candidates());
  ASSERT_EQ(folded.num_targets(), static_cast<int>(weights.size()));
  double weight_sum = 0.0;
  for (int t = 0; t < folded.num_targets(); ++t) {
    EXPECT_EQ(folded.target_weight(t), weights[static_cast<size_t>(t)]);
    weight_sum += folded.target_weight(t);
  }
  EXPECT_EQ(weight_sum, static_cast<double>(pairs.size()));
  for (int w = 0; w < raw.num_targets(); ++w) {
    EXPECT_EQ(folded.root_distance(target_of[static_cast<size_t>(w)]),
              raw.root_distance(w));
  }
  constexpr float kAbsent = -1.0f;
  std::vector<float> folded_distance(weights.size(), kAbsent);
  for (int u = 0; u < raw.num_candidates(); ++u) {
    double folded_degree = 0.0;
    for (const auto& e : folded.EdgesOf(u)) {
      folded_distance[static_cast<size_t>(e.endpoint)] = e.weight;
      folded_degree += folded.target_weight(e.endpoint);
    }
    for (const auto& e : raw.EdgesOf(u)) {
      const int t = target_of[static_cast<size_t>(e.endpoint)];
      EXPECT_EQ(folded_distance[static_cast<size_t>(t)], e.weight)
          << "candidate " << u << " raw target " << e.endpoint;
    }
    EXPECT_EQ(folded_degree, static_cast<double>(raw.EdgesOf(u).size()))
        << "candidate " << u;
    for (const auto& e : folded.EdgesOf(u)) {
      folded_distance[static_cast<size_t>(e.endpoint)] = kAbsent;
    }
  }
  EXPECT_EQ(folded.EmptySummaryCost(), raw.EmptySummaryCost());
}

/// The reference candidate classes, by definition: two candidates share a
/// class iff they reach the same set of folded targets through their pairs
/// (a pair its own target; a run, given by `group_begin`, the targets of
/// its pairs), numbered in first-occurrence order. `group_begin` empty
/// means pair granularity.
std::vector<int> NaiveClasses(const std::vector<ConceptSentimentPair>& pairs,
                              const std::vector<int>& group_begin) {
  std::vector<double> weights;
  const std::vector<int> target_of = NaiveFold(pairs, &weights);
  std::vector<std::set<int>> keys;
  if (group_begin.empty()) {
    for (int t : target_of) keys.push_back({t});
  } else {
    for (size_t g = 0; g + 1 < group_begin.size(); ++g) {
      keys.emplace_back(target_of.begin() + group_begin[g],
                        target_of.begin() + group_begin[g + 1]);
    }
  }
  std::vector<std::set<int>> seen;
  std::vector<int> class_of;
  for (const std::set<int>& key : keys) {
    auto it = std::find(seen.begin(), seen.end(), key);
    class_of.push_back(static_cast<int>(it - seen.begin()));
    if (it == seen.end()) seen.push_back(key);
  }
  return class_of;
}

/// The folded graph's classes are exactly the reference classes, with one
/// stored row each.
void ExpectClasses(const CoverageGraph& folded,
                   const std::vector<int>& expected) {
  ASSERT_EQ(folded.num_candidates(), static_cast<int>(expected.size()));
  int num_classes = 0;
  for (int u = 0; u < folded.num_candidates(); ++u) {
    EXPECT_EQ(folded.ClassOf(u), expected[static_cast<size_t>(u)])
        << "candidate " << u;
    num_classes = std::max(num_classes, expected[static_cast<size_t>(u)] + 1);
  }
  EXPECT_EQ(folded.num_classes(), num_classes);
}

/// Byte-identical storage: class map, class rows, backward rows in order,
/// root distances and target weights.
void ExpectSameStorage(const CoverageGraph& a, const CoverageGraph& b) {
  ASSERT_EQ(a.num_candidates(), b.num_candidates());
  ASSERT_EQ(a.num_classes(), b.num_classes());
  ASSERT_EQ(a.num_targets(), b.num_targets());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  auto same_lanes = [](CoverageGraph::EdgeLanes x, CoverageGraph::EdgeLanes y) {
    return x.size == y.size &&
           std::equal(x.endpoint, x.endpoint + x.size, y.endpoint) &&
           std::equal(x.distance, x.distance + x.size, y.distance);
  };
  for (int u = 0; u < a.num_candidates(); ++u) {
    EXPECT_EQ(a.ClassOf(u), b.ClassOf(u)) << "candidate " << u;
  }
  for (int c = 0; c < a.num_classes(); ++c) {
    EXPECT_TRUE(same_lanes(a.ClassLanesOf(c), b.ClassLanesOf(c)))
        << "class " << c;
  }
  for (int w = 0; w < a.num_targets(); ++w) {
    EXPECT_TRUE(same_lanes(a.BackwardLanesOf(w), b.BackwardLanesOf(w)))
        << "target " << w;
    EXPECT_EQ(a.root_distance(w), b.root_distance(w));
    EXPECT_EQ(a.target_weight(w), b.target_weight(w));
  }
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Optimum of the §4.2 LP relaxation of the k-median model over `graph`.
double RelaxationOptimum(const CoverageGraph& graph, int k) {
  KMedianModel model = BuildKMedianModel(graph, k, /*integral_x=*/false);
  LpSolution lp = RevisedSimplex().Solve(model.problem, nullptr);
  EXPECT_EQ(lp.status, LpStatus::kOptimal);
  return lp.objective;
}

std::vector<uint64_t> BitsOf(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double value : values) bits.push_back(Bits(value));
  return bits;
}

/// Everything a greedy or local-search run reports but its timing.
void ExpectSameRun(const Result<SummaryResult>& folded,
                   const Result<SummaryResult>& raw) {
  ASSERT_EQ(folded.ok(), raw.ok()) << folded.status().ToString() << " vs "
                                   << raw.status().ToString();
  if (!raw.ok()) {
    EXPECT_EQ(folded.status().code(), raw.status().code());
    return;
  }
  EXPECT_EQ(folded->selected, raw->selected);
  EXPECT_EQ(Bits(folded->cost), Bits(raw->cost))
      << folded->cost << " vs " << raw->cost;
  EXPECT_EQ(BitsOf(folded->prefix_costs), BitsOf(raw->prefix_costs));
  EXPECT_EQ(folded->work, raw->work);
  EXPECT_EQ(folded->approximate, raw->approximate);
  EXPECT_EQ(folded->stop_reason, raw->stop_reason);
}

/// RR solves compared and how many picked another selection on the folded
/// graph than on the raw one.
struct RrTally {
  int solves = 0;
  int changed = 0;
};

/// Greedy (eager and lazy) and local search must return bit-identical
/// selections, costs, per-pick costs and work counters on the folded and
/// the raw graph, on both kernel backends, and a max_solver_work cut-off
/// must stop greedy at the same pick; ILP must return equal costs. RR
/// samples its selection from whichever optimal vertex of the LP
/// relaxation the simplex returns, and the fold keeps the relaxation's
/// optimum but not necessarily that vertex: RR shares the bound (equal LP
/// optimum) and stays no cheaper than ILP on either graph, but its draw
/// may differ (counted in `rr_tally` when given).
void ExpectSameSolves(const CoverageGraph& folded, const CoverageGraph& raw,
                      int k, RrTally* rr_tally = nullptr) {
  GreedySummarizer eager;
  GreedySummarizer lazy(GreedyOptions{GreedyOptions::Heap::kLazy});
  LocalSearchSummarizer local_search;
  const std::pair<const char*, Summarizer*> exact_solvers[] = {
      {"greedy", &eager}, {"greedy-lazy", &lazy},
      {"local-search", &local_search}};
  for (simd::Backend backend : {simd::Backend::kScalar, simd::Backend::kAvx2}) {
    ScopedBackend scoped(backend);
    for (const auto& [name, solver] : exact_solvers) {
      SCOPED_TRACE(std::string(name) + " on " + simd::BackendName(backend));
      auto on_raw = solver->Summarize(raw, k);
      ASSERT_TRUE(on_raw.ok()) << on_raw.status().ToString();
      ExpectSameRun(solver->Summarize(folded, k), on_raw);
      if (solver == &local_search) continue;
      // A work bound trips at the same pick (its check reads the same
      // work counter before every pick).
      for (int64_t max_work : {int64_t{1}, on_raw->work / 3, on_raw->work / 2,
                               on_raw->work}) {
        if (max_work <= 0) continue;
        SCOPED_TRACE("max_work " + std::to_string(max_work));
        ExecutionBudget budget;
        budget.SetMaxWork(max_work);
        ExpectSameRun(solver->Summarize(folded, k, budget),
                      solver->Summarize(raw, k, budget));
      }
    }
  }
  auto ilp_folded = IlpSummarizer().Summarize(folded, k);
  auto ilp_raw = IlpSummarizer().Summarize(raw, k);
  ASSERT_TRUE(ilp_folded.ok()) << ilp_folded.status().ToString();
  ASSERT_TRUE(ilp_raw.ok()) << ilp_raw.status().ToString();
  EXPECT_EQ(ilp_folded->cost, ilp_raw->cost);
  EXPECT_EQ(ilp_folded->cost, raw.CostOfSelection(ilp_folded->selected));

  const double relaxed = RelaxationOptimum(raw, k);
  EXPECT_NEAR(RelaxationOptimum(folded, k), relaxed,
              1e-7 * std::max(1.0, std::abs(relaxed)));
  auto rr_folded = RandomizedRoundingSummarizer().Summarize(folded, k);
  auto rr_raw = RandomizedRoundingSummarizer().Summarize(raw, k);
  ASSERT_TRUE(rr_folded.ok()) << rr_folded.status().ToString();
  ASSERT_TRUE(rr_raw.ok()) << rr_raw.status().ToString();
  EXPECT_GE(rr_folded->cost, ilp_folded->cost);
  EXPECT_GE(rr_raw->cost, ilp_raw->cost);
  EXPECT_EQ(rr_folded->selected.size(), rr_raw->selected.size());
  EXPECT_EQ(rr_folded->cost, folded.CostOfSelection(rr_folded->selected));
  EXPECT_EQ(rr_folded->cost, raw.CostOfSelection(rr_folded->selected));
  if (rr_tally != nullptr) {
    ++rr_tally->solves;
    if (rr_folded->selected != rr_raw->selected) ++rr_tally->changed;
  }
}

TEST(CoverageDiffTest, FoldTargetsMergesEqualPairsInFirstOccurrenceOrder) {
  const ConceptId a = 1, b = 2;
  WeightedTargets folded = FoldTargets(
      {{a, 0.0}, {b, 0.25}, {a, -0.0}, {a, 0.25}, {b, 0.25}, {a, 0.0},
       {b, -0.25}});
  // +0.0 == -0.0 fold together (the first occurrence's sign is kept).
  ASSERT_EQ(folded.pairs.size(), 4u);
  EXPECT_EQ(folded.pairs[0], (ConceptSentimentPair{a, 0.0}));
  EXPECT_FALSE(std::signbit(folded.pairs[0].sentiment));
  EXPECT_EQ(folded.pairs[1], (ConceptSentimentPair{b, 0.25}));
  EXPECT_EQ(folded.pairs[2], (ConceptSentimentPair{a, 0.25}));
  EXPECT_EQ(folded.pairs[3], (ConceptSentimentPair{b, -0.25}));
  EXPECT_EQ(folded.weights, (std::vector<double>{3.0, 2.0, 1.0, 1.0}));
  EXPECT_EQ(folded.target_of, (std::vector<int32_t>{0, 1, 0, 2, 1, 0, 3}));
  EXPECT_TRUE(FoldTargets({}).pairs.empty());
  EXPECT_TRUE(FoldTargets({}).target_of.empty());
}

TEST(CoverageDiffTest, FoldedItemGraphMatchesUnfoldedRandomized) {
  Rng rng(20261017);
  const double eps_grid[] = {0.25, 0.5};
  const SummaryGranularity granularities[] = {SummaryGranularity::kPairs,
                                              SummaryGranularity::kSentences,
                                              SummaryGranularity::kReviews};
  size_t total_pairs = 0, total_targets = 0;
  size_t total_candidates = 0, total_classes = 0;
  RrTally rr_tally;
  for (int round = 0; round < 12; ++round) {
    const int num_concepts = 2 + static_cast<int>(rng.NextUint64(10));
    Ontology onto = RandomOntology(rng, num_concepts, 0.2);
    const Item item = RandomGridItem(rng, onto);
    const double eps = eps_grid[rng.NextUint64(2)];
    PairDistance dist(&onto, eps);
    const std::vector<ConceptSentimentPair> pairs =
        PairsOf(CollectPairs(item));
    for (SummaryGranularity granularity : granularities) {
      CoverageGraph serial;
      for (int threads : kThreadCounts) {
        SCOPED_TRACE("round " + std::to_string(round) + " " +
                     SummaryGranularityToString(granularity) + " threads " +
                     std::to_string(threads));
        CoverageBuildOptions options;
        options.num_threads = threads;
        Result<ItemGraph> built =
            TryBuildItemGraph(dist, item, granularity, options);
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        const CoverageGraph& folded = built->graph;
        ASSERT_EQ(PairsOf(built->occurrences), pairs);
        const CoverageGraph raw =
            granularity == SummaryGranularity::kPairs
                ? CoverageGraph::BuildForPairs(dist, pairs, threads)
                : CoverageGraph::BuildForGroups(
                      dist, pairs, RunMembers(built->group_begin), threads);
        ExpectFoldOf(raw, pairs, folded);
        ExpectClasses(folded, NaiveClasses(pairs, built->group_begin));
        if (threads == 1) {
          serial = folded;
          total_pairs += pairs.size();
          total_targets += static_cast<size_t>(folded.num_targets());
          total_candidates += static_cast<size_t>(folded.num_candidates());
          total_classes += static_cast<size_t>(folded.num_classes());
        } else {
          ExpectEdgesEqual(GraphEdges(serial), folded, "folded vs serial");
          ExpectSameStorage(serial, folded);
        }
        const int k = std::min(1 + static_cast<int>(rng.NextUint64(5)),
                               folded.num_candidates());
        ExpectSameSolves(folded, raw, k, &rr_tally);
      }
    }
  }
  // The grid must actually produce duplicates on both sides, or the fold
  // went untested.
  EXPECT_LT(total_targets, total_pairs);
  EXPECT_LT(total_classes, total_candidates);
  RecordProperty("rr_solves", rr_tally.solves);
  RecordProperty("rr_changed", rr_tally.changed);
  std::printf("RR draws changed by the fold: %d of %d\n", rr_tally.changed,
              rr_tally.solves);
}

/// One item whose sentences repeat `kinds` distinct pair sets round-robin,
/// `copies` times each, one review per `per_review` sentences.
Item RepeatedSentenceItem(
    const std::vector<std::vector<ConceptSentimentPair>>& kinds, int copies,
    int per_review) {
  Item item;
  item.id = "repeated";
  int sentence = 0;
  for (int c = 0; c < copies; ++c) {
    for (size_t kind = 0; kind < kinds.size(); ++kind, ++sentence) {
      if (sentence % per_review == 0) item.reviews.emplace_back();
      item.reviews.back().sentences.push_back(
          {"kind " + std::to_string(kind), kinds[kind]});
    }
  }
  return item;
}

TEST(CoverageDiffTest, FoldedCandidatesOnHandBuiltItems) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ConceptId b = onto.AddConcept("b");
  ConceptId c = onto.AddConcept("c");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.AddEdge(a, b).ok());
  ASSERT_TRUE(onto.AddEdge(root, c).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.25);
  struct Case {
    const char* name;
    Item item;
  };
  const Case cases[] = {
      // Every sentence identical, a pair repeated inside it too.
      {"identical", RepeatedSentenceItem({{{a, 0.5}, {b, 0.25}, {a, 0.5}}},
                                         12, 3)},
      // Three kinds of sentence, so k can exceed the class count; the
      // third is the first's pairs reordered, the same class.
      {"three kinds",
       RepeatedSentenceItem(
           {{{a, 0.5}, {c, -0.5}}, {{b, 0.25}}, {{c, -0.5}, {a, 0.5}}}, 5,
           2)},
  };
  const SummaryGranularity granularities[] = {SummaryGranularity::kPairs,
                                              SummaryGranularity::kSentences,
                                              SummaryGranularity::kReviews};
  for (const Case& test_case : cases) {
    const std::vector<ConceptSentimentPair> pairs =
        PairsOf(CollectPairs(test_case.item));
    for (SummaryGranularity granularity : granularities) {
      Result<ItemGraph> built =
          TryBuildItemGraph(dist, test_case.item, granularity, {});
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const CoverageGraph& folded = built->graph;
      const CoverageGraph raw =
          granularity == SummaryGranularity::kPairs
              ? CoverageGraph::BuildForPairs(dist, pairs)
              : CoverageGraph::BuildForGroups(dist, pairs,
                                              RunMembers(built->group_begin));
      ExpectFoldOf(raw, pairs, folded);
      ExpectClasses(folded, NaiveClasses(pairs, built->group_begin));
      ASSERT_LT(folded.num_classes(), folded.num_candidates());
      // Below, at and above the class count, up to every candidate: past
      // the classes greedy picks zero-gain members in id order.
      const int n = folded.num_candidates();
      for (int k : {1, folded.num_classes(), folded.num_classes() + 1,
                    std::min(n, folded.num_classes() + 3), n}) {
        SCOPED_TRACE(std::string(test_case.name) + " " +
                     SummaryGranularityToString(granularity) + " k=" +
                     std::to_string(k));
        ExpectSameSolves(folded, raw, k);
      }
    }
  }
  // The one-class item: one row stored, whatever the candidate count.
  Result<ItemGraph> identical = TryBuildItemGraph(
      dist, cases[0].item, SummaryGranularity::kSentences, {});
  ASSERT_TRUE(identical.ok());
  EXPECT_EQ(identical->graph.num_candidates(), 12);
  EXPECT_EQ(identical->graph.num_classes(), 1);
  EXPECT_EQ(identical->graph.num_edges(),
            identical->graph.ClassLanesOf(0).size);
}

TEST(CoverageDiffTest, FoldedCandidatesOnDatagenCorpora) {
  DoctorCorpusOptions doctor_options;
  doctor_options.scale = 0.006;  // 6 doctors
  doctor_options.ontology_concepts = 800;
  CellPhoneCorpusOptions phone_options;
  phone_options.scale = 0.1;  // 6 phones
  const Corpus corpora[] = {GenerateDoctorCorpus(doctor_options),
                            GenerateCellPhoneCorpus(phone_options)};
  size_t total_candidates = 0, total_classes = 0;
  RrTally rr_tally;
  for (const Corpus& corpus : corpora) {
    PairDistance dist(&corpus.ontology, 0.5);
    const size_t num_items = std::min<size_t>(corpus.items.size(), 4);
    for (size_t i = 0; i < num_items; ++i) {
      const Item item = TruncateToPairBudget(corpus.items[i], 90);
      const std::vector<ConceptSentimentPair> pairs =
          PairsOf(CollectPairs(item));
      for (SummaryGranularity granularity :
           {SummaryGranularity::kPairs, SummaryGranularity::kSentences,
            SummaryGranularity::kReviews}) {
        SCOPED_TRACE(item.id + " " + SummaryGranularityToString(granularity));
        Result<ItemGraph> built =
            TryBuildItemGraph(dist, item, granularity, {});
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        const CoverageGraph& folded = built->graph;
        if (folded.num_candidates() == 0) continue;
        const CoverageGraph raw =
            granularity == SummaryGranularity::kPairs
                ? CoverageGraph::BuildForPairs(dist, pairs)
                : CoverageGraph::BuildForGroups(
                      dist, pairs, RunMembers(built->group_begin));
        ExpectFoldOf(raw, pairs, folded);
        ExpectClasses(folded, NaiveClasses(pairs, built->group_begin));
        total_candidates += static_cast<size_t>(folded.num_candidates());
        total_classes += static_cast<size_t>(folded.num_classes());
        ExpectSameSolves(folded, raw, std::min(5, folded.num_candidates()),
                         &rr_tally);
      }
    }
  }
  EXPECT_LT(total_classes, total_candidates);
  std::printf("RR draws changed by the fold: %d of %d\n", rr_tally.changed,
              rr_tally.solves);
}

TEST(CoverageDiffTest, WeightedBuildersRejectMismatchedTargetMap) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  const std::vector<ConceptSentimentPair> pairs{{a, 0.5}, {a, -0.5}};
  WeightedTargets short_map = FoldTargets(pairs);
  short_map.target_of.pop_back();
  WeightedTargets wrong_target = FoldTargets(pairs);
  wrong_target.target_of = {1, 0};
  WeightedTargets out_of_range = FoldTargets(pairs);
  out_of_range.target_of = {0, 2};
  for (const WeightedTargets& targets :
       {short_map, wrong_target, out_of_range}) {
    EXPECT_EQ(
        CoverageGraph::TryBuildForPairsWeighted(dist, pairs, targets, {})
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(CoverageGraph::TryBuildForGroupsWeighted(
                  dist, pairs, std::vector<int>{0, 1, 2}, targets, {})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(CoverageDiffTest, FoldedMemoryGateCountsFoldedEdges) {
  // One hot concept mentioned over and over at two sentiments: the raw
  // graph is quadratic in the mentions, the folded one has two targets.
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.25);
  Item item;
  item.id = "hot";
  for (int r = 0; r < 40; ++r) {
    Review review;
    review.sentences.push_back({"good", {{a, 0.5}}});
    review.sentences.push_back({"fine", {{a, 0.25}, {a, 0.5}}});
    item.reviews.push_back(std::move(review));
  }
  for (SummaryGranularity granularity :
       {SummaryGranularity::kPairs, SummaryGranularity::kSentences}) {
    SCOPED_TRACE(SummaryGranularityToString(granularity));
    Result<ItemGraph> unlimited =
        TryBuildItemGraph(dist, item, granularity, {});
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    const CoverageGraph& folded = unlimited->graph;
    ASSERT_EQ(folded.num_targets(), 2);
    const size_t needed = CoverageGraph::EstimateBytes(
        folded.num_edges(), static_cast<size_t>(folded.num_candidates()),
        static_cast<size_t>(folded.num_targets()), /*weighted=*/true);
    const std::vector<ConceptSentimentPair> pairs =
        PairsOf(unlimited->occurrences);
    const CoverageGraph raw =
        granularity == SummaryGranularity::kPairs
            ? CoverageGraph::BuildForPairs(dist, pairs)
            : CoverageGraph::BuildForGroups(
                  dist, pairs, RunMembers(unlimited->group_begin));
    ASSERT_LT(needed,
              CoverageGraph::EstimateBytes(
                  raw.num_edges(), static_cast<size_t>(raw.num_candidates()),
                  static_cast<size_t>(raw.num_targets()), false));

    // The gate prices exactly the folded graph it is about to build.
    CoverageBuildOptions options;
    options.max_memory_bytes = needed;
    Result<ItemGraph> at_budget =
        TryBuildItemGraph(dist, item, granularity, options);
    ASSERT_TRUE(at_budget.ok()) << at_budget.status().ToString();
    ExpectEdgesEqual(GraphEdges(folded), at_budget->graph, "at budget");
    options.max_memory_bytes = needed - 1;
    Result<ItemGraph> over_budget =
        TryBuildItemGraph(dist, item, granularity, options);
    ASSERT_FALSE(over_budget.ok());
    EXPECT_EQ(over_budget.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(over_budget.status().message().find(
                  std::to_string(folded.num_edges()) + " edges"),
              std::string::npos)
        << over_budget.status().ToString();
  }
}

TEST(CoverageDiffTest, WeightedBuildersRejectMismatchedWeights) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  const std::vector<ConceptSentimentPair> pairs{{a, 0.5}, {a, 0.5}};
  const WeightedTargets targets{{{a, 0.5}}, {1.0, 1.0}, {}};
  EXPECT_EQ(CoverageGraph::TryBuildForPairsWeighted(dist, pairs, targets, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CoverageGraph::TryBuildForGroupsWeighted(
                dist, pairs, std::vector<int>{0, 2}, targets, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CoverageDiffTest, GroupedBuilderRejectsMalformedRuns) {
  Ontology onto;
  ConceptId root = onto.AddConcept("root");
  ConceptId a = onto.AddConcept("a");
  ASSERT_TRUE(onto.AddEdge(root, a).ok());
  ASSERT_TRUE(onto.Finalize().ok());
  PairDistance dist(&onto, 0.5);
  const std::vector<ConceptSentimentPair> pairs{{a, 0.5}, {a, -0.5}};
  const WeightedTargets targets = FoldTargets(pairs);
  for (const std::vector<int>& group_begin :
       {std::vector<int>{0, 2, 1}, std::vector<int>{0, 3},
        std::vector<int>{-1, 2}}) {
    EXPECT_EQ(CoverageGraph::TryBuildForGroupsWeighted(dist, pairs,
                                                       group_begin, targets,
                                                       {})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // Pairs outside every run are simply no candidate's members.
  Result<CoverageGraph> partial = CoverageGraph::TryBuildForGroupsWeighted(
      dist, pairs, std::vector<int>{1, 2}, targets, {});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->num_candidates(), 1);
  EXPECT_EQ(partial->num_targets(), 2);
}

/// The elbow sweep over unfolded graphs: one BuildForPairs graph per grid
/// point, greedy, CoveredFraction, and the maximum-distance-to-chord knee.
ElbowResult ReferenceElbow(const Ontology& onto,
                           const std::vector<ConceptSentimentPair>& pairs,
                           int k, const std::vector<double>& epsilons) {
  ElbowResult result;
  result.epsilons = epsilons;
  GreedySummarizer greedy;
  for (double eps : epsilons) {
    PairDistance distance(&onto, eps);
    const CoverageGraph graph = CoverageGraph::BuildForPairs(distance, pairs);
    auto summary =
        greedy.Summarize(graph, std::min<int>(k, graph.num_candidates()));
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    if (!summary.ok()) return result;
    std::vector<ConceptSentimentPair> selected;
    for (int u : summary->selected) {
      selected.push_back(pairs[static_cast<size_t>(u)]);
    }
    result.covered_fraction.push_back(
        CoveredFraction(distance, selected, pairs));
  }
  const double x0 = epsilons.front(), x1 = epsilons.back();
  const double y0 = result.covered_fraction.front(),
               y1 = result.covered_fraction.back();
  const double x_span = std::max(x1 - x0, 1e-12);
  const double y_span = std::max(std::abs(y1 - y0), 1e-12);
  double best = -1.0;
  for (size_t i = 0; i < epsilons.size(); ++i) {
    const double x = (epsilons[i] - x0) / x_span;
    const double y = (result.covered_fraction[i] - y0) / y_span;
    const double distance = std::abs(y - x) / std::sqrt(2.0);
    if (distance > best) {
      best = distance;
      result.chosen_epsilon = epsilons[i];
    }
  }
  return result;
}

TEST(CoverageDiffTest, FoldedElbowMatchesUnfoldedReference) {
  // The grid ReviewSummarizer's auto_epsilon probes.
  const std::vector<double> grid{0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.7, 0.9, 1.2, 1.6, 2.0};
  DoctorCorpusOptions doctor_options;
  doctor_options.scale = 0.006;  // 6 doctors
  doctor_options.ontology_concepts = 800;
  CellPhoneCorpusOptions phone_options;
  phone_options.scale = 0.1;  // 6 phones
  const Corpus corpora[] = {GenerateDoctorCorpus(doctor_options),
                            GenerateCellPhoneCorpus(phone_options)};
  int items_checked = 0;
  for (const Corpus& corpus : corpora) {
    const size_t num_items = std::min<size_t>(corpus.items.size(), 6);
    for (size_t i = 0; i < num_items; ++i) {
      const Item item = TruncateToPairBudget(corpus.items[i], 250);
      const std::vector<ConceptSentimentPair> pairs =
          PairsOf(CollectPairs(item));
      if (pairs.empty()) continue;
      for (int k : {1, 5}) {
        SCOPED_TRACE(item.id + " k=" + std::to_string(k));
        const ElbowResult expected =
            ReferenceElbow(corpus.ontology, pairs, k, grid);
        Result<ElbowResult> folded =
            SelectEpsilonByElbow(corpus.ontology, pairs, k, grid, {});
        ASSERT_TRUE(folded.ok()) << folded.status().ToString();
        EXPECT_EQ(folded->epsilons, expected.epsilons);
        ASSERT_EQ(folded->covered_fraction.size(),
                  expected.covered_fraction.size());
        for (size_t g = 0; g < grid.size(); ++g) {
          EXPECT_EQ(Bits(folded->covered_fraction[g]),
                    Bits(expected.covered_fraction[g]))
              << "eps " << grid[g];
        }
        EXPECT_EQ(Bits(folded->chosen_epsilon), Bits(expected.chosen_epsilon));
      }
      ++items_checked;
    }
  }
  EXPECT_GE(items_checked, 10);
}

}  // namespace
}  // namespace osrs
