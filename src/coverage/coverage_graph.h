#ifndef OSRS_COVERAGE_COVERAGE_GRAPH_H_
#define OSRS_COVERAGE_COVERAGE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "core/distance.h"
#include "core/model.h"

namespace osrs {

/// Options shared by the fallible TryBuild* graph constructors.
struct CoverageBuildOptions {
  /// Shard count for the two construction passes: 1 = serial (default),
  /// 0 = hardware concurrency. Bit-identical output at every value.
  int num_threads = 1;
  /// When non-zero, an upper bound on the bytes the finished graph may
  /// occupy (both CSR copies, offsets, root distances). The counting pass
  /// already knows the exact edge total before anything is allocated, so
  /// an over-budget build returns kResourceExhausted *without* attempting
  /// the allocation — no bad_alloc, no partially built graph. 0 = no limit.
  size_t max_memory_bytes = 0;
};

/// Coverage targets with a multiplicity each: target w stands for
/// `weights[w]` identical members of the pair multiset P.
struct WeightedTargets {
  std::vector<ConceptSentimentPair> pairs;
  std::vector<double> weights;
  /// FoldTargets only: the target each folded pair went to, one entry per
  /// pair of the folded multiset. The TryBuild*Weighted builders read the
  /// candidates' fold keys from here instead of hashing the pairs again;
  /// left empty, they fold the pairs themselves.
  std::vector<int32_t> target_of;
};

/// The edge-weighted bipartite graph G = (U, W, E) of §4.1.
///
/// W is the item's concept-sentiment pair multiset P (the coverage
/// targets) — one target per pair, or, from the *Weighted builders, one
/// weighted target per distinct pair (FoldTargets). U is the candidate
/// set: the pairs themselves for k-Pairs Coverage, or sentences/reviews —
/// groups of pair indices — for the §4.5 variants. An edge (u, w) with
/// weight d(u, w) exists iff candidate u covers target w at finite
/// Definition 1 distance; for a group candidate the weight is the minimum
/// over its member pairs.
///
/// Storage is CSR in both directions: the greedy algorithm walks forward
/// edges (candidate → targets) when applying a selection and backward edges
/// (target → candidates) to find the neighbor-of-neighbor keys to update.
///
/// Rows are stored once per candidate *class*: candidates whose pairs carry
/// the same (concept, sentiment) keys have identical rows, so the graph
/// keeps one forward and one backward row per class plus a candidate →
/// class map. Candidates stay the unit of every per-candidate accessor
/// (num_candidates, EdgesOf, ForwardLanesOf, CostOfSelection); backward
/// rows list classes. The TryBuild*Weighted builders fold equal
/// candidates into one class; the value-returning Build* builders give
/// every candidate its own class (the unfolded reference).
///
/// The CSR is structure-of-arrays: each direction keeps a 64-byte-aligned
/// endpoint lane (int32) and a distance lane (float) rather than an array
/// of {endpoint, distance} structs. The SIMD kernels (common/simd.h)
/// stream one lane per register — 8 endpoints or 8 distances per load —
/// which an interleaved layout would halve; scalar consumers keep the
/// struct view through EdgesOf/CoveringOf, whose iterator zips the lanes
/// back into Edge values.
class CoverageGraph {
 public:
  /// A half-edge view: the opposite endpoint and the coverage distance.
  /// The weight is float — coverage distances are small integer hop counts
  /// (min over hops for group candidates), which float represents exactly.
  /// Edges are materialized from the lanes on access; nothing stores them.
  struct Edge {
    int32_t endpoint;
    float weight;
  };

  /// One CSR row as raw lane pointers — the view the SIMD kernels consume.
  /// `endpoint[i]` pairs with `distance[i]`; both lanes are slices of
  /// 64-byte-aligned arrays (the slice itself starts at an arbitrary
  /// offset; the kernels use unaligned loads).
  struct EdgeLanes {
    const int32_t* endpoint = nullptr;
    const float* distance = nullptr;
    size_t size = 0;
  };

  /// Random-access range zipping the two lanes of a CSR row back into Edge
  /// values for scalar consumers (tests, LP assembly, local search). The
  /// iterator yields Edge by value; binding `const Edge&` in a range-for
  /// works as usual (lifetime extension).
  class EdgeRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = Edge;
      using difference_type = std::ptrdiff_t;
      using reference = Edge;
      using pointer = const Edge*;

      Iterator() = default;
      Iterator(const int32_t* endpoint, const float* distance)
          : endpoint_(endpoint), distance_(distance) {}

      Edge operator*() const { return Edge{*endpoint_, *distance_}; }
      Edge operator[](difference_type i) const {
        return Edge{endpoint_[i], distance_[i]};
      }
      Iterator& operator++() {
        ++endpoint_;
        ++distance_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator copy = *this;
        ++*this;
        return copy;
      }
      Iterator& operator+=(difference_type n) {
        endpoint_ += n;
        distance_ += n;
        return *this;
      }
      friend Iterator operator+(Iterator it, difference_type n) {
        return it += n;
      }
      friend difference_type operator-(const Iterator& a, const Iterator& b) {
        return a.endpoint_ - b.endpoint_;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.endpoint_ == b.endpoint_;
      }
      friend bool operator!=(const Iterator& a, const Iterator& b) {
        return a.endpoint_ != b.endpoint_;
      }

     private:
      const int32_t* endpoint_ = nullptr;
      const float* distance_ = nullptr;
    };

    EdgeRange() = default;
    EdgeRange(EdgeLanes lanes) : lanes_(lanes) {}  // NOLINT

    Iterator begin() const { return {lanes_.endpoint, lanes_.distance}; }
    Iterator end() const {
      return {lanes_.endpoint + lanes_.size, lanes_.distance + lanes_.size};
    }
    size_t size() const { return lanes_.size; }
    bool empty() const { return lanes_.size == 0; }
    Edge operator[](size_t i) const {
      return Edge{lanes_.endpoint[i], lanes_.distance[i]};
    }
    EdgeLanes lanes() const { return lanes_; }

   private:
    EdgeLanes lanes_;
  };

  /// Builds the k-Pairs graph: U = W = `pairs`. Mirrors the paper's two-pass
  /// construction — bucket pairs by concept (each bucket sorted by
  /// sentiment), then for each target walk its concept's precomputed
  /// ancestor closure and binary-search the `[s - eps, s + eps]` sentiment
  /// window of every ancestor bucket, so inner-loop work is proportional to
  /// the edges emitted rather than the bucket sizes.
  ///
  /// Construction is two passes over the same enumeration: a counting pass
  /// (degrees only, nothing materialized) and a scatter pass writing every
  /// edge directly into its final CSR slot — no intermediate edge buffers
  /// and no per-candidate sort. `num_threads` shards the targets across
  /// workers (1 = serial, the default; 0 = hardware concurrency); the
  /// resulting graph is bit-identical at every thread count.
  static CoverageGraph BuildForPairs(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs, int num_threads = 1);

  /// Builds the §4.5 graph: U = `groups` (each a list of indices into
  /// `pairs`, e.g. the pairs of one sentence), W = `pairs`. Same
  /// `num_threads` contract as BuildForPairs; each target is processed
  /// wholly by one shard, which keeps the per-group minimum-weight dedupe
  /// exact.
  static CoverageGraph BuildForGroups(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<std::vector<int>>& groups, int num_threads = 1);

  /// Like BuildForPairs but with a multiplicity per target: target w
  /// contributes weight[w] · d(F, w) to the cost. Together with DedupePairs
  /// this collapses the many duplicate pairs of real review sets (the same
  /// popular aspect mentioned with near-identical sentiment) into one
  /// weighted target, shrinking the graph without changing any cost.
  static CoverageGraph BuildForPairsWeighted(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<double>& target_weights, int num_threads = 1);

  /// Fallible builders whose target side W is `targets`, given apart from
  /// the candidate pairs: U is `pairs` (ForPairs) or contiguous runs of
  /// `pairs` (ForGroups: candidate c is pairs[group_begin[c],
  /// group_begin[c + 1]), so `group_begin` holds one offset more than there
  /// are candidates; pairs outside every run cover nothing), and target w
  /// contributes targets.weights[w] · d(F, w) to the cost. With
  /// FoldTargets(pairs) this is the exact, smaller form of
  /// BuildForPairs/BuildForGroups (same candidates, same costs); with
  /// targets = {pairs, weights} the ForPairs variant is
  /// BuildForPairsWeighted.
  ///
  /// Both fold the candidate side into classes: a pair's class is its fold
  /// key (the target FoldTargets folded it into), a run's class the sorted,
  /// de-duplicated fold keys of its pairs (a group's distance is the
  /// minimum over its pairs, so a repeated key adds nothing). Classes are
  /// numbered in first-occurrence order, so a class's first member is its
  /// smallest, and do not depend on ε; only each class's first member is
  /// enumerated. The keys come from `targets.target_of` when it holds one
  /// entry per pair, each naming a target equal to its pair (anything else
  /// there is kInvalidArgument), and from a fold of `pairs` when it is
  /// empty. Resource failures surface as Status
  /// instead of crashing: a build whose counting pass predicts more than
  /// `options.max_memory_bytes` of graph storage (weight lane included)
  /// returns kResourceExhausted before allocating, and the
  /// "osrs.coverage.alloc" failpoint (src/fault/failpoint.h) is evaluated
  /// on entry — only here, so callers of the legacy value-returning
  /// builders are never affected by an armed failpoint. A weight count
  /// that differs from the target count, and offsets that decrease or
  /// leave [0, pairs.size()], are kInvalidArgument. Every graph
  /// built under src/ goes through these; the value-returning builders are
  /// kept as the unfolded reference for tests and benches.
  static Result<CoverageGraph> TryBuildForPairsWeighted(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const WeightedTargets& targets, const CoverageBuildOptions& options);
  static Result<CoverageGraph> TryBuildForGroupsWeighted(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<int>& group_begin, const WeightedTargets& targets,
      const CoverageBuildOptions& options);

  /// Bytes of heap storage a graph with `num_edges` stored (class) edges
  /// occupies: both CSR directions, the candidate → class map, and one
  /// forward offset per class, priced as one per candidate — the most
  /// classes there can be. So it is capacity-exact for a freshly built
  /// graph whose candidates did not fold, and otherwise over by 8 bytes
  /// per candidate folded away. The same formula the TryBuild* memory
  /// gate evaluates pre-allocation.
  static size_t EstimateBytes(size_t num_edges, size_t num_candidates,
                              size_t num_targets, bool weighted);

  int num_candidates() const { return static_cast<int>(class_of_.size()); }
  int num_targets() const { return static_cast<int>(root_distance_.size()); }
  /// Stored edges: one row per class, so a folded candidate adds none.
  size_t num_edges() const { return forward_endpoint_.size(); }

  /// Number of candidate classes (== num_candidates() when unfolded).
  int num_classes() const {
    return forward_offsets_.empty()
               ? 0
               : static_cast<int>(forward_offsets_.size()) - 1;
  }

  /// Class of candidate `u`. Classes are numbered in first-occurrence
  /// order: class c's smallest member is smaller than class c + 1's.
  int ClassOf(int u) const { return class_of_[static_cast<size_t>(u)]; }

  /// Targets covered by candidate `u` with their distances.
  EdgeRange EdgesOf(int u) const { return EdgeRange(ForwardLanesOf(u)); }

  /// Classes covering target `w` with their distances.
  EdgeRange CoveringOf(int w) const { return EdgeRange(BackwardLanesOf(w)); }

  /// Raw SoA lanes of candidate u's forward row (targets + distances) —
  /// what the SIMD gain/update kernels stream. The row of its class.
  EdgeLanes ForwardLanesOf(int u) const;

  /// Raw SoA lanes of class c's forward row, shared by all its members.
  EdgeLanes ClassLanesOf(int c) const;

  /// Raw SoA lanes of target w's backward row: the covering classes (not
  /// candidates) and their distances.
  EdgeLanes BackwardLanesOf(int w) const;

  /// d(r, pair_w): the always-available root coverage distance of target w.
  double root_distance(int w) const { return root_distance_[w]; }

  /// The root distances as a 64-byte-aligned float lane (exact: hop
  /// counts), indexed by target — the solvers' initial best[] image.
  const float* root_distances_f32() const { return root_distance_f32_.data(); }

  /// Multiplicity of target w (1.0 unless built weighted).
  double target_weight(int w) const {
    return target_weights_.empty()
               ? 1.0
               : target_weights_[static_cast<size_t>(w)];
  }

  /// The multiplicity lane for the SIMD kernels: null when the graph is
  /// unweighted (all ones), else `num_targets()` doubles.
  const double* target_weights_or_null() const {
    return target_weights_.empty() ? nullptr : target_weights_.data();
  }

  /// Σ_w root_distance(w) — the cost of the empty summary.
  double EmptySummaryCost() const;

  /// Definition 2 cost of selecting candidate set `selected` (indices into
  /// U), computed from the graph: Σ_w min(root, min over selected coverers).
  double CostOfSelection(const std::vector<int>& selected) const;

  /// Allocation-free form for hot callers (rounding trials, local-search
  /// passes): `best_scratch` must hold num_targets() floats and is fully
  /// overwritten. Distances are integral hop counts — exact in float — so
  /// the result is identical to the owning overload.
  double CostOfSelection(std::span<const int> selected,
                         std::span<float> best_scratch) const;

  /// Mean forward degree over candidates, not classes (graph sparsity
  /// diagnostic; §4.4's running-time discussion depends on it).
  double AverageCandidateDegree() const;

  /// An empty graph (no candidates, no targets). Mostly useful as a
  /// placeholder before assignment from one of the builders.
  CoverageGraph() = default;

 private:
  /// The one enumeration-and-scatter implementation behind every builder,
  /// legacy Build* (infallible, no limit) and TryBuild* (memory-gated)
  /// alike. Rows are the `num_classes` groups over `pairs` given by the
  /// pair → row map `group_of` (-1 = in no row; such pairs are left out of
  /// the concept buckets), or — the identity grouping (kGrouped false,
  /// `group_of` null) — the pairs themselves, with no singleton groups
  /// materialized; `class_of` maps every candidate to its row and becomes
  /// the graph's map. Targets are `targets`, weighted by `target_weights`
  /// unless that is null. The gate runs between the counting and scatter
  /// passes, where the exact edge total is known but nothing has been
  /// allocated yet.
  template <bool kGrouped>
  static Result<CoverageGraph> BuildForGroupsImpl(
      const PairDistance& distance,
      const std::vector<ConceptSentimentPair>& pairs,
      const std::vector<int>* group_of, int num_classes,
      std::vector<int32_t> class_of,
      const std::vector<ConceptSentimentPair>& targets,
      const std::vector<double>* target_weights,
      const CoverageBuildOptions& options);

  /// Turns the per-(shard, candidate) forward degree counts of the builders'
  /// counting pass into forward_offsets_ plus disjoint scatter cursors (one
  /// serial prefix sum), and sizes forward_edges_. On return,
  /// `shard_degree[s][u]` is the first forward_edges_ slot of shard s's
  /// slice of candidate u's row; slices are consecutive in shard order, so
  /// after the builders' scatter pass it holds the slice end.
  void PrepareForwardScatter(int num_classes,
                             std::vector<std::vector<size_t>>& shard_degree);

  /// Prefix-sums the per-target covering counts into backward_offsets_ and
  /// sizes backward_edges_. The scatter pass then fills backward rows
  /// in-line: targets are enumerated in ascending order within each shard
  /// and shards own contiguous target ranges, so every shard's backward
  /// writes are purely sequential over a disjoint range — no transpose
  /// pass. Rows hold a target's coverers in emission (closure × bucket)
  /// order, which is fixed per target and thus identical at every shard
  /// count.
  void PrepareBackwardFill(int num_targets,
                           const std::vector<size_t>& backward_degree);

  // Candidate → class map; candidate u's row is its class's.
  std::vector<int32_t> class_of_;
  // Forward CSR, structure-of-arrays: class c's row is
  // forward_endpoint_/forward_distance_[forward_offsets_[c] ..
  // forward_offsets_[c + 1]). Lanes are 64-byte aligned for the SIMD
  // kernels' streaming loads.
  std::vector<size_t> forward_offsets_;
  AlignedVector<int32_t> forward_endpoint_;
  AlignedVector<float> forward_distance_;
  // Backward CSR, same layout: target w is covered by the row at
  // backward_offsets_[w].
  std::vector<size_t> backward_offsets_;
  AlignedVector<int32_t> backward_endpoint_;
  AlignedVector<float> backward_distance_;
  std::vector<double> root_distance_;
  AlignedVector<float> root_distance_f32_;  // same values, kernel lane
  std::vector<double> target_weights_;      // empty = all ones
};

/// Folds the pair multiset P into weighted targets: every set of pairs with
/// the same concept and bit-identical sentiment (-0.0 read as +0.0, so
/// exactly ConceptSentimentPair::operator==, except that copies of one NaN
/// fold too) becomes one target whose weight is its multiplicity, in
/// first-occurrence order, and `target_of` records where each pair went.
/// Unlike DedupePairs this never moves a sentiment, so a graph over the
/// folded targets has exactly the costs of the graph over P: folded pairs
/// have identical edges, and every weight and distance is an integer, so
/// each weighted sum is exact.
WeightedTargets FoldTargets(const std::vector<ConceptSentimentPair>& pairs);

/// Collapses duplicate pairs: pairs with the same concept whose sentiments
/// fall in the same quantization bucket of width `sentiment_quantum` merge
/// into one representative (the bucket's weighted mean sentiment) with a
/// multiplicity. Returns the unique pairs, their weights, and for each
/// input pair the index of its representative.
struct DedupedPairs {
  std::vector<ConceptSentimentPair> pairs;
  std::vector<double> weights;
  std::vector<int> representative_of;  // per input pair
};
DedupedPairs DedupePairs(const std::vector<ConceptSentimentPair>& pairs,
                         double sentiment_quantum);

}  // namespace osrs

#endif  // OSRS_COVERAGE_COVERAGE_GRAPH_H_
