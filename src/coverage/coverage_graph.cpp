#include "coverage/coverage_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

obs::Counter* WindowHitsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.coverage.window_hits");
  return counter;
}

obs::Counter* BuildsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.coverage.builds");
  return counter;
}

obs::Gauge* ShardImbalanceGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "osrs.coverage.shard_imbalance_pct");
  return gauge;
}

/// First pass of §4.1: bucket pair indices by concept, each bucket sorted
/// by sentiment so the Definition 1 eps test becomes a binary-searched
/// window instead of a full scan. Flattened into three parallel arrays to
/// keep the per-(target, ancestor) lookup allocation- and hash-free.
struct ConceptBuckets {
  /// Bucket index per concept id; -1 when no pair carries that concept.
  std::vector<int32_t> bucket_of_concept;
  /// Bucket b spans [offsets[b], offsets[b + 1]) of the two arrays below.
  std::vector<size_t> offsets;
  /// Sentiments ascending within each bucket (ties broken by pair index).
  std::vector<double> sentiments;
  /// Pair indices parallel to `sentiments`.
  std::vector<int> pair_indices;
};

/// Only pairs that build a row are bucketed: with `group_of` given, pairs
/// it maps to -1 (outside every run, or members of a folded-away
/// candidate) would only be enumerated to be dropped.
ConceptBuckets BucketByConcept(const Ontology& onto,
                               const std::vector<ConceptSentimentPair>& pairs,
                               const std::vector<int>* group_of) {
  auto bucketed = [group_of](size_t i) {
    return group_of == nullptr || (*group_of)[i] >= 0;
  };
  ConceptBuckets buckets;
  buckets.bucket_of_concept.assign(onto.num_concepts(), -1);
  int32_t num_buckets = 0;
  size_t num_bucketed = 0;
  std::vector<size_t> bucket_sizes;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!bucketed(i)) continue;
    int32_t& slot =
        buckets.bucket_of_concept[static_cast<size_t>(pairs[i].concept_id)];
    if (slot < 0) {
      slot = num_buckets++;
      bucket_sizes.push_back(0);
    }
    ++bucket_sizes[static_cast<size_t>(slot)];
    ++num_bucketed;
  }
  buckets.offsets.assign(static_cast<size_t>(num_buckets) + 1, 0);
  for (int32_t b = 0; b < num_buckets; ++b) {
    buckets.offsets[static_cast<size_t>(b) + 1] =
        buckets.offsets[static_cast<size_t>(b)] +
        bucket_sizes[static_cast<size_t>(b)];
  }
  buckets.sentiments.resize(num_bucketed);
  buckets.pair_indices.resize(num_bucketed);
  std::vector<size_t> cursor(buckets.offsets.begin(),
                             buckets.offsets.end() - 1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!bucketed(i)) continue;
    int32_t b = buckets.bucket_of_concept[static_cast<size_t>(pairs[i].concept_id)];
    size_t slot = cursor[static_cast<size_t>(b)]++;
    buckets.sentiments[slot] = pairs[i].sentiment;
    buckets.pair_indices[slot] = static_cast<int>(i);
  }
  // Sort each bucket by (sentiment, pair index); the pair-index tiebreak
  // keeps construction deterministic under duplicate sentiments.
  std::vector<std::pair<double, int>> scratch;
  for (int32_t b = 0; b < num_buckets; ++b) {
    size_t begin = buckets.offsets[static_cast<size_t>(b)];
    size_t end = buckets.offsets[static_cast<size_t>(b) + 1];
    scratch.clear();
    for (size_t i = begin; i < end; ++i) {
      scratch.emplace_back(buckets.sentiments[i], buckets.pair_indices[i]);
    }
    std::sort(scratch.begin(), scratch.end());
    for (size_t i = 0; i < scratch.size(); ++i) {
      buckets.sentiments[begin + i] = scratch[i].first;
      buckets.pair_indices[begin + i] = scratch[i].second;
    }
  }
  return buckets;
}

/// Second pass of §4.1 over targets [w_begin, w_end): for each target pair
/// w, walk the precomputed ancestor closure of its concept and
/// binary-search each ancestor bucket's `[s - eps, s + eps]` sentiment
/// window. The window bounds carry a small absolute slack so rounding in
/// `s ± eps` can never exclude a candidate; the exact Definition 1
/// predicate `|s1 - s2| <= eps` then decides inside the window, keeping
/// the emitted edge set bit-identical to a full-scan builder. Calls
/// `emit(u_pair_index, w, weight)` once per covering (pair, target)
/// combination, with w ascending; u indexes the pairs `buckets` was built
/// from, which need not be `targets`. Returns the number of edges emitted.
template <typename EmitFn>
size_t ForEachCoveringPairInRange(const PairDistance& distance,
                                  const std::vector<ConceptSentimentPair>& targets,
                                  const ConceptBuckets& buckets, int w_begin,
                                  int w_end, const EmitFn& emit) {
  const Ontology& onto = distance.ontology();
  const ConceptId root = onto.root();
  const double eps = distance.epsilon();
  // Sentiments live in [-1, 1]; 1e-9 dwarfs the worst-case rounding of
  // `s ± eps` (a few ulps) while admitting essentially no extra window
  // candidates for the exact predicate to reject.
  const double kWindowSlack = 1e-9;
  // Windows at least this long go through the vectorized eps predicate
  // (simd::EpsWindowMask); shorter ones scan scalar. The kernel evaluates
  // the *same* exact `|ds| <= eps` predicate with the same IEEE ops, so
  // the emitted edge set is independent of the threshold — it only moves
  // the crossover where the mask setup pays for itself.
  constexpr size_t kSimdWindowThreshold = 16;
  std::vector<uint64_t> window_mask;  // per-shard scratch, reused across w
  size_t emitted = 0;
  for (int w = w_begin; w < w_end; ++w) {
    const ConceptSentimentPair& target = targets[static_cast<size_t>(w)];
    for (const AncestorEntry& ancestor : onto.AncestorsOf(target.concept_id)) {
      int32_t b =
          buckets.bucket_of_concept[static_cast<size_t>(ancestor.concept_id)];
      if (b < 0) continue;
      const double weight = static_cast<double>(ancestor.distance);
      size_t begin = buckets.offsets[static_cast<size_t>(b)];
      size_t end = buckets.offsets[static_cast<size_t>(b) + 1];
      if (ancestor.concept_id != root) {
        const double* first = buckets.sentiments.data() + begin;
        const double* last = buckets.sentiments.data() + end;
        begin += static_cast<size_t>(
            std::lower_bound(first, last, target.sentiment - eps - kWindowSlack) -
            first);
        end -= static_cast<size_t>(
            last - std::upper_bound(first, last,
                                    target.sentiment + eps + kWindowSlack));
        if (end - begin >= kSimdWindowThreshold) {
          const size_t window = end - begin;
          window_mask.resize((window + 63) / 64);
          simd::EpsWindowMask(buckets.sentiments.data() + begin, window,
                              target.sentiment, eps, window_mask.data());
          for (size_t word = 0; word < window_mask.size(); ++word) {
            uint64_t bits = window_mask[word];
            while (bits != 0) {
              size_t i = begin + (word << 6) +
                         static_cast<size_t>(std::countr_zero(bits));
              emit(buckets.pair_indices[i], w, weight);
              ++emitted;
              bits &= bits - 1;
            }
          }
          continue;
        }
        for (size_t i = begin; i < end; ++i) {
          if (std::abs(buckets.sentiments[i] - target.sentiment) > eps) {
            continue;
          }
          emit(buckets.pair_indices[i], w, weight);
          ++emitted;
        }
      } else {
        // The root covers every pair regardless of sentiment.
        for (size_t i = begin; i < end; ++i) {
          emit(buckets.pair_indices[i], w, weight);
          ++emitted;
        }
      }
    }
  }
  return emitted;
}

/// Resolves the builder thread count: <= 0 means hardware concurrency,
/// and shards never outnumber targets (an empty shard is pure overhead).
int ResolveNumThreads(int num_threads, size_t num_targets) {
  if (num_threads <= 0) {
    unsigned hardware = std::thread::hardware_concurrency();
    num_threads = static_cast<int>(std::max(1u, hardware));
  }
  if (num_targets == 0) return 1;
  return std::min<int>(num_threads, static_cast<int>(num_targets));
}

/// Runs `shard_fn(shard, w_begin, w_end)` over `num_shards` contiguous,
/// ascending, near-equal target ranges — shard 0 on the calling thread.
/// Each shard must record only into shard-local state; `shard_fn` returns
/// its emitted edge count, collected into the result for the imbalance
/// telemetry.
template <typename ShardFn>
std::vector<size_t> RunSharded(int num_targets, int num_shards,
                               const ShardFn& shard_fn) {
  std::vector<size_t> emitted(static_cast<size_t>(num_shards), 0);
  auto bounds = [&](int shard) {
    int64_t lo = static_cast<int64_t>(num_targets) * shard / num_shards;
    int64_t hi = static_cast<int64_t>(num_targets) * (shard + 1) / num_shards;
    return std::pair<int, int>(static_cast<int>(lo), static_cast<int>(hi));
  };
  if (num_shards == 1) {
    emitted[0] = shard_fn(0, 0, num_targets);
    return emitted;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_shards) - 1);
  for (int shard = 1; shard < num_shards; ++shard) {
    auto [lo, hi] = bounds(shard);
    workers.emplace_back([&emitted, &shard_fn, shard, lo, hi]() {
      emitted[static_cast<size_t>(shard)] = shard_fn(shard, lo, hi);
    });
  }
  auto [lo0, hi0] = bounds(0);
  emitted[0] = shard_fn(0, lo0, hi0);
  for (std::thread& worker : workers) worker.join();
  return emitted;
}

/// Records the build telemetry: total eps-window hits (== edges emitted)
/// and the shard imbalance in percent — (max - min) emitted per shard,
/// relative to the max; 0 for a serial build or perfectly even shards.
void RecordBuildTelemetry(const std::vector<size_t>& emitted_per_shard) {
  size_t total = 0, max_emitted = 0, min_emitted = SIZE_MAX;
  for (size_t emitted : emitted_per_shard) {
    total += emitted;
    max_emitted = std::max(max_emitted, emitted);
    min_emitted = std::min(min_emitted, emitted);
  }
  BuildsCounter()->Increment();
  WindowHitsCounter()->Add(static_cast<int64_t>(total));
  int64_t imbalance_pct = 0;
  if (emitted_per_shard.size() > 1 && max_emitted > 0) {
    imbalance_pct = static_cast<int64_t>(
        (max_emitted - min_emitted) * 100 / max_emitted);
  }
  ShardImbalanceGauge()->Set(imbalance_pct);
}

std::vector<double> RootDistances(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs) {
  std::vector<double> root_distance(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    root_distance[i] = distance.FromRoot(pairs[i]);
  }
  return root_distance;
}

/// Exact forward-edge total after a counting pass: the sum of every
/// (shard, candidate) degree.
size_t TotalCountedEdges(const std::vector<std::vector<size_t>>& shard_degree) {
  size_t total = 0;
  for (const std::vector<size_t>& degree : shard_degree) {
    for (size_t d : degree) total += d;
  }
  return total;
}

/// The TryBuild* memory gate, evaluated between the counting and scatter
/// passes: the edge total is exact, nothing is allocated yet, so an
/// over-budget build degrades to a clean kResourceExhausted instead of an
/// allocation failure mid-construction.
Status CheckMemoryBudget(const CoverageBuildOptions& options, size_t num_edges,
                         size_t num_candidates, size_t num_targets,
                         bool weighted) {
  if (options.max_memory_bytes == 0) return Status::OK();
  size_t needed = CoverageGraph::EstimateBytes(num_edges, num_candidates,
                                               num_targets, weighted);
  if (needed <= options.max_memory_bytes) return Status::OK();
  return Status::ResourceExhausted(StrFormat(
      "coverage graph needs %zu bytes (%zu edges, %zu candidates, "
      "%zu targets) but max_memory_bytes is %zu",
      needed, num_edges, num_candidates, num_targets,
      options.max_memory_bytes));
}

/// Pair → owning group for explicit member lists (a pair belongs to at
/// most one sentence / review); -1 for pairs in no group.
std::vector<int> GroupOfMembers(const std::vector<std::vector<int>>& groups,
                                size_t num_pairs) {
  std::vector<int> group_of(num_pairs, -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int pair_index : groups[g]) {
      OSRS_DCHECK_GE(pair_index, 0);
      OSRS_DCHECK_LT(static_cast<size_t>(pair_index), num_pairs);
      OSRS_DCHECK_MSG(group_of[static_cast<size_t>(pair_index)] == -1,
                      "pair " << pair_index << " assigned to two groups");
      group_of[static_cast<size_t>(pair_index)] = static_cast<int>(g);
    }
  }
  return group_of;
}

/// Every candidate its own class: the unfolded reference builders' map.
std::vector<int32_t> IdentityClasses(size_t num_candidates) {
  std::vector<int32_t> class_of(num_candidates);
  for (size_t u = 0; u < num_candidates; ++u) {
    class_of[u] = static_cast<int32_t>(u);
  }
  return class_of;
}

/// The candidate classes of one TryBuild*Weighted build.
struct CandidateClasses {
  /// Class of every candidate, numbered in first-occurrence order.
  std::vector<int32_t> class_of;
  int num_classes = 0;
  /// Pair → the class whose row it builds, or -1: only the pairs of each
  /// class's first member are enumerated.
  std::vector<int> group_of;
};

/// Pairs granularity: candidate u is pair u, and its class is its fold
/// key, renumbered in first-occurrence order.
CandidateClasses PairClasses(std::span<const int32_t> key_of,
                             size_t num_keys) {
  CandidateClasses out;
  out.class_of.resize(key_of.size());
  out.group_of.resize(key_of.size());
  std::vector<int32_t> class_of_key(num_keys, -1);
  for (size_t u = 0; u < key_of.size(); ++u) {
    int32_t& cls = class_of_key[static_cast<size_t>(key_of[u])];
    const bool first = cls < 0;
    if (first) cls = out.num_classes++;
    out.class_of[u] = cls;
    out.group_of[u] = first ? cls : -1;
  }
  return out;
}

/// Sentence/review granularity: run g's class key is the sorted,
/// de-duplicated fold keys of its pairs. One pass over the runs with every
/// table sized up front: the keys of the classes found so far sit back to
/// back in `keys` (class c's at [key_begin[c], key_begin[c + 1])), and each
/// run's key is sorted in place at their end and either dropped again (a
/// known class) or kept (a new one). A key of one id — most sentences
/// carry one pair — finds its class in a table indexed by that id; longer
/// keys go through an open-addressing table at most half full.
CandidateClasses RunClasses(const std::vector<int>& group_begin,
                            std::span<const int32_t> key_of,
                            size_t num_keys) {
  const size_t num_groups = group_begin.empty() ? 0 : group_begin.size() - 1;
  CandidateClasses out;
  out.class_of.resize(num_groups);
  out.group_of.assign(key_of.size(), -1);
  // Kept keys plus the run being keyed never exceed the pairs.
  std::vector<int32_t> keys;
  keys.reserve(key_of.size());
  std::vector<size_t> key_begin;
  key_begin.reserve(num_groups + 1);
  key_begin.push_back(0);
  std::vector<int32_t> class_of_id(num_keys, -1);
  size_t num_long_runs = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    if (group_begin[g + 1] - group_begin[g] != 1) ++num_long_runs;
  }
  const size_t capacity =
      std::bit_ceil(std::max<size_t>(2 * num_long_runs, 16));
  const size_t mask = capacity - 1;
  std::vector<int32_t> slots(capacity, -1);
  auto slot_of = [&](std::span<const int32_t> key) -> int32_t& {
    if (key.size() == 1) return class_of_id[static_cast<size_t>(key[0])];
    uint64_t hash = key.size();
    for (int32_t id : key) {
      hash = Mix64(hash ^ static_cast<uint64_t>(static_cast<uint32_t>(id)));
    }
    size_t slot = static_cast<size_t>(hash) & mask;
    while (slots[slot] >= 0) {
      const size_t c = static_cast<size_t>(slots[slot]);
      if (std::equal(key.begin(), key.end(), keys.data() + key_begin[c],
                     keys.data() + key_begin[c + 1])) {
        break;
      }
      slot = (slot + 1) & mask;
    }
    return slots[slot];
  };
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t run_begin = static_cast<size_t>(group_begin[g]);
    const size_t run_end = static_cast<size_t>(group_begin[g + 1]);
    const size_t begin = keys.size();
    if (run_end - run_begin == 1) {
      keys.push_back(key_of[run_begin]);
    } else {
      keys.insert(keys.end(), key_of.data() + run_begin,
                  key_of.data() + run_end);
      std::sort(keys.data() + begin, keys.data() + keys.size());
      keys.resize(static_cast<size_t>(
          std::unique(keys.data() + begin, keys.data() + keys.size()) -
          keys.data()));
    }
    int32_t& cls = slot_of({keys.data() + begin, keys.size() - begin});
    if (cls >= 0) {
      out.class_of[g] = cls;
      keys.resize(begin);
      continue;
    }
    cls = out.num_classes++;
    key_begin.push_back(keys.size());
    out.class_of[g] = cls;
    std::fill(out.group_of.data() + run_begin, out.group_of.data() + run_end,
              cls);
  }
  return out;
}

/// Run offsets must ascend inside [0, num_pairs], or the runs would
/// overlap or leave the pairs.
Status CheckGroupRuns(const std::vector<int>& group_begin, size_t num_pairs) {
  for (size_t g = 0; g < group_begin.size(); ++g) {
    const int offset = group_begin[g];
    if (offset < 0 || static_cast<size_t>(offset) > num_pairs ||
        (g > 0 && offset < group_begin[g - 1])) {
      return Status::InvalidArgument(StrFormat(
          "group offset %zu is %d: offsets must ascend within [0, %zu]", g,
          offset, num_pairs));
    }
  }
  return Status::OK();
}

/// Key of a DedupePairs bucket: a concept plus a quantized sentiment (or,
/// for FoldTargets, the sentiment's bits).
struct DedupeKey {
  ConceptId concept_id;
  int64_t sentiment_bucket;

  bool operator==(const DedupeKey& other) const {
    return concept_id == other.concept_id &&
           sentiment_bucket == other.sentiment_bucket;
  }
};

/// Mixes the concept and bucket words through the splitmix64 finalizer;
/// either field alone is low-entropy (small ids, clustered buckets).
struct DedupeKeyHash {
  size_t operator()(const DedupeKey& key) const {
    uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(key.concept_id));
    h = (h << 32) ^ static_cast<uint64_t>(key.sentiment_bucket);
    return static_cast<size_t>(Mix64(h));
  }
};

/// FoldTargets' key: the concept plus the sentiment's bit pattern with -0.0
/// read as +0.0, so exactly the pairs with identical distance rows share a
/// key.
DedupeKey FoldKey(const ConceptSentimentPair& pair) {
  const double sentiment = pair.sentiment == 0.0 ? 0.0 : pair.sentiment;
  return {pair.concept_id, std::bit_cast<int64_t>(sentiment)};
}

/// The fold key of every pair, as the id of the target it folds into:
/// equal ids mean equal (concept, sentiment) keys, hence identical coverage
/// rows. Read off targets.target_of when it is given, each id checked to
/// name a target equal to its pair; otherwise `scratch` becomes
/// FoldTargets(pairs) and lends its map. Returns the number of ids.
Result<size_t> FoldKeysOf(const std::vector<ConceptSentimentPair>& pairs,
                          const WeightedTargets& targets,
                          WeightedTargets& scratch,
                          std::span<const int32_t>& key_of) {
  if (targets.target_of.empty()) {
    scratch = FoldTargets(pairs);
    key_of = scratch.target_of;
    return scratch.pairs.size();
  }
  if (targets.target_of.size() != pairs.size()) {
    return Status::InvalidArgument(
        StrFormat("target_of has %zu entries for %zu pairs",
                  targets.target_of.size(), pairs.size()));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const int32_t t = targets.target_of[i];
    if (t < 0 || static_cast<size_t>(t) >= targets.pairs.size() ||
        !(FoldKey(targets.pairs[static_cast<size_t>(t)]) ==
          FoldKey(pairs[i]))) {
      return Status::InvalidArgument(StrFormat(
          "target_of[%zu] is %d, not a target equal to pair %zu", i, t, i));
    }
  }
  key_of = targets.target_of;
  return targets.pairs.size();
}

/// A weight lane must carry exactly one multiplicity per target.
Status CheckTargetWeights(const WeightedTargets& targets) {
  if (targets.weights.size() == targets.pairs.size()) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("target weights have %zu entries for %zu targets",
                targets.weights.size(), targets.pairs.size()));
}

}  // namespace

size_t CoverageGraph::EstimateBytes(size_t num_edges, size_t num_candidates,
                                    size_t num_targets, bool weighted) {
  // Both CSR directions as SoA lanes (endpoint int32 + distance float per
  // edge — byte-identical to the former 8-byte Edge struct), both offset
  // arrays (the forward one priced per candidate, the bound on classes),
  // the candidate → class map, root distances in double and in the float
  // kernel lane, and (when built weighted) the multiplicity array.
  size_t bytes = 2 * num_edges * (sizeof(int32_t) + sizeof(float));
  bytes += (num_candidates + 1 + num_targets + 1) * sizeof(size_t);
  bytes += num_candidates * sizeof(int32_t);
  bytes += num_targets * (sizeof(double) + sizeof(float));
  if (weighted) bytes += num_targets * sizeof(double);
  return bytes;
}

template <bool kGrouped>
Result<CoverageGraph> CoverageGraph::BuildForGroupsImpl(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<int>* group_of, int num_classes,
    std::vector<int32_t> class_of,
    const std::vector<ConceptSentimentPair>& targets,
    const std::vector<double>* target_weights,
    const CoverageBuildOptions& options) {
  obs::TraceSpan build_span(obs::Phase::kBuildCoverageGraph);
  // The identity grouping needs no map: pair u is row u.
  OSRS_DCHECK(!kGrouped || group_of->size() == pairs.size());
  const ConceptBuckets buckets = BucketByConcept(
      distance.ontology(), pairs, kGrouped ? group_of : nullptr);
  const int num_targets = static_cast<int>(targets.size());
  const int num_shards = ResolveNumThreads(options.num_threads, targets.size());
  // Per-shard group scratch; empty for the identity grouping.
  const size_t group_scratch =
      kGrouped ? static_cast<size_t>(num_classes) : 0;

  // Counting pass: the full closure/window enumeration with degrees as the
  // only output. Nothing is materialized, so the pass reads only the hot
  // bucket arrays. Per-target backward degrees are shared but race-free —
  // each target belongs to exactly one shard. Grouped, pair-level emits
  // aggregate to group level: one group may reach the same target through
  // several member pairs, and last_target dedupes those without a hash
  // map — every emit for target w happens before any emit for w + 1
  // within a shard, and each target is wholly owned by one shard, so the
  // group's previous target is all the state dedupe needs. (A pair
  // reaches a target at most once: it sits in exactly one concept bucket.)
  std::vector<std::vector<size_t>> shard_degree(
      static_cast<size_t>(num_shards));
  std::vector<size_t> backward_degree(static_cast<size_t>(num_targets), 0);
  std::vector<size_t> emitted = RunSharded(
      num_targets, num_shards, [&](int shard, int w_begin, int w_end) {
        std::vector<size_t>& degree = shard_degree[static_cast<size_t>(shard)];
        degree.assign(static_cast<size_t>(num_classes), 0);
        std::vector<int> last_target(group_scratch, -1);
        return ForEachCoveringPairInRange(
            distance, targets, buckets, w_begin, w_end,
            [&](int u, int w, double /*weight*/) {
              int c = u;
              if constexpr (kGrouped) {
                c = (*group_of)[static_cast<size_t>(u)];
                OSRS_DCHECK_GE(c, 0);  // only row-building pairs are bucketed
                if (last_target[static_cast<size_t>(c)] == w) return;
                last_target[static_cast<size_t>(c)] = w;
              }
              ++degree[static_cast<size_t>(c)];
              ++backward_degree[static_cast<size_t>(w)];
            });
      });
  RecordBuildTelemetry(emitted);
  OSRS_RETURN_IF_ERROR(CheckMemoryBudget(
      options, TotalCountedEdges(shard_degree), class_of.size(),
      static_cast<size_t>(num_targets), target_weights != nullptr));

  // Scatter pass: re-run the same enumeration, writing every edge straight
  // into both final CSR slots. Forward rows fill through per-(shard,
  // candidate) cursors over disjoint slices — each shard emits ascending
  // targets, so rows come out sorted with no intermediate buffers and no
  // sort. Backward rows fill through one sequential per-shard cursor:
  // target w's coverers are emitted consecutively and targets ascend, so
  // the backward CSR needs no transpose pass at all. A repeat (group,
  // target) emit min-merges its weight into the forward and backward slots
  // recorded by last_findex/last_bindex instead of consuming new ones,
  // keeping Definition 2's minimum over member pairs in both CSR copies.
  CoverageGraph graph;
  graph.class_of_ = std::move(class_of);
  graph.root_distance_ = RootDistances(distance, targets);
  graph.root_distance_f32_.assign(graph.root_distance_.begin(),
                                  graph.root_distance_.end());
  if (target_weights != nullptr) graph.target_weights_ = *target_weights;
  graph.PrepareForwardScatter(num_classes, shard_degree);
  graph.PrepareBackwardFill(num_targets, backward_degree);
  RunSharded(
      num_targets, num_shards, [&](int shard, int w_begin, int w_end) {
        std::vector<size_t>& cursor =
            shard_degree[static_cast<size_t>(shard)];
        size_t backward_cursor =
            graph.backward_offsets_[static_cast<size_t>(w_begin)];
        std::vector<int> last_target(group_scratch, -1);
        std::vector<size_t> last_findex(group_scratch, 0);
        std::vector<size_t> last_bindex(group_scratch, 0);
        size_t shard_emitted = ForEachCoveringPairInRange(
            distance, targets, buckets, w_begin, w_end,
            [&](int u, int w, double weight) {
              const float fw = static_cast<float>(weight);
              int c = u;
              if constexpr (kGrouped) {
                c = (*group_of)[static_cast<size_t>(u)];
                OSRS_DCHECK_GE(c, 0);
                if (last_target[static_cast<size_t>(c)] == w) {
                  float& forward_distance = graph.forward_distance_
                      [last_findex[static_cast<size_t>(c)]];
                  if (fw < forward_distance) {
                    forward_distance = fw;
                    graph.backward_distance_
                        [last_bindex[static_cast<size_t>(c)]] = fw;
                  }
                  return;
                }
                last_target[static_cast<size_t>(c)] = w;
                last_findex[static_cast<size_t>(c)] =
                    cursor[static_cast<size_t>(c)];
                last_bindex[static_cast<size_t>(c)] = backward_cursor;
              }
              const size_t fslot = cursor[static_cast<size_t>(c)]++;
              graph.forward_endpoint_[fslot] = w;
              graph.forward_distance_[fslot] = fw;
              graph.backward_endpoint_[backward_cursor] = c;
              graph.backward_distance_[backward_cursor] = fw;
              ++backward_cursor;
            });
        OSRS_DCHECK_EQ(backward_cursor,
                       graph.backward_offsets_[static_cast<size_t>(w_end)]);
        return shard_emitted;
      });
  obs::TraceStat(obs::Stat::kGraphEdgesBuilt,
                 static_cast<int64_t>(graph.num_edges()));
  return graph;
}

CoverageGraph CoverageGraph::BuildForPairs(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs, int num_threads) {
  CoverageBuildOptions options;
  options.num_threads = num_threads;
  // No memory limit and no failpoint on the legacy path, so the impl
  // cannot fail.
  auto graph = BuildForGroupsImpl<false>(
      distance, pairs, nullptr, static_cast<int>(pairs.size()),
      IdentityClasses(pairs.size()), pairs, nullptr, options);
  OSRS_CHECK(graph.ok());
  return std::move(graph).value();
}

CoverageGraph CoverageGraph::BuildForGroups(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<std::vector<int>>& groups, int num_threads) {
  CoverageBuildOptions options;
  options.num_threads = num_threads;
  const std::vector<int> group_of = GroupOfMembers(groups, pairs.size());
  auto graph = BuildForGroupsImpl<true>(
      distance, pairs, &group_of, static_cast<int>(groups.size()),
      IdentityClasses(groups.size()), pairs, nullptr, options);
  OSRS_CHECK(graph.ok());
  return std::move(graph).value();
}

CoverageGraph CoverageGraph::BuildForPairsWeighted(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<double>& target_weights, int num_threads) {
  OSRS_CHECK_EQ(target_weights.size(), pairs.size());
  CoverageBuildOptions options;
  options.num_threads = num_threads;
  auto graph = BuildForGroupsImpl<false>(
      distance, pairs, nullptr, static_cast<int>(pairs.size()),
      IdentityClasses(pairs.size()), pairs, &target_weights, options);
  OSRS_CHECK(graph.ok());
  return std::move(graph).value();
}

Result<CoverageGraph> CoverageGraph::TryBuildForPairsWeighted(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const WeightedTargets& targets, const CoverageBuildOptions& options) {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.coverage.alloc"));
  OSRS_RETURN_IF_ERROR(CheckTargetWeights(targets));
  WeightedTargets scratch;
  std::span<const int32_t> key_of;
  Result<size_t> num_keys = FoldKeysOf(pairs, targets, scratch, key_of);
  OSRS_RETURN_IF_ERROR(num_keys.status());
  CandidateClasses classes = PairClasses(key_of, *num_keys);
  return BuildForGroupsImpl<true>(distance, pairs, &classes.group_of,
                                  classes.num_classes,
                                  std::move(classes.class_of), targets.pairs,
                                  &targets.weights, options);
}

Result<CoverageGraph> CoverageGraph::TryBuildForGroupsWeighted(
    const PairDistance& distance,
    const std::vector<ConceptSentimentPair>& pairs,
    const std::vector<int>& group_begin, const WeightedTargets& targets,
    const CoverageBuildOptions& options) {
  OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.coverage.alloc"));
  OSRS_RETURN_IF_ERROR(CheckTargetWeights(targets));
  OSRS_RETURN_IF_ERROR(CheckGroupRuns(group_begin, pairs.size()));
  WeightedTargets scratch;
  std::span<const int32_t> key_of;
  Result<size_t> num_keys = FoldKeysOf(pairs, targets, scratch, key_of);
  OSRS_RETURN_IF_ERROR(num_keys.status());
  CandidateClasses classes = RunClasses(group_begin, key_of, *num_keys);
  return BuildForGroupsImpl<true>(distance, pairs, &classes.group_of,
                                  classes.num_classes,
                                  std::move(classes.class_of), targets.pairs,
                                  &targets.weights, options);
}

DedupedPairs DedupePairs(const std::vector<ConceptSentimentPair>& pairs,
                         double sentiment_quantum) {
  OSRS_CHECK_GT(sentiment_quantum, 0.0);
  DedupedPairs out;
  out.representative_of.resize(pairs.size());
  // Bucket key: (concept, quantized sentiment). Representatives are
  // assigned in first-occurrence order, so the output is independent of
  // the map's iteration order.
  std::unordered_map<DedupeKey, int, DedupeKeyHash> bucket_to_representative;
  bucket_to_representative.reserve(pairs.size());
  std::vector<double> sentiment_sums;
  for (size_t i = 0; i < pairs.size(); ++i) {
    int64_t bucket = static_cast<int64_t>(
        std::floor(pairs[i].sentiment / sentiment_quantum));
    auto [it, inserted] = bucket_to_representative.emplace(
        DedupeKey{pairs[i].concept_id, bucket},
        static_cast<int>(out.pairs.size()));
    if (inserted) {
      out.pairs.push_back(pairs[i]);
      out.weights.push_back(0.0);
      sentiment_sums.push_back(0.0);
    }
    int rep = it->second;
    out.representative_of[i] = rep;
    out.weights[static_cast<size_t>(rep)] += 1.0;
    sentiment_sums[static_cast<size_t>(rep)] += pairs[i].sentiment;
  }
  // Representative sentiment = bucket mean (stays within the bucket).
  for (size_t r = 0; r < out.pairs.size(); ++r) {
    out.pairs[r].sentiment = sentiment_sums[r] / out.weights[r];
  }
  return out;
}

WeightedTargets FoldTargets(const std::vector<ConceptSentimentPair>& pairs) {
  WeightedTargets out;
  out.pairs.reserve(pairs.size());
  out.weights.reserve(pairs.size());
  out.target_of.resize(pairs.size());
  // Open-addressing table of target indices (-1 = empty), at most half
  // full, probed linearly; targets are assigned in first-occurrence order.
  // Every solve runs this, so it avoids DedupePairs' node-based
  // unordered_map: on the 300-item doctor corpus (sentences, eps 0.5,
  // fastest of 15 runs, AVX2 Xeon) the map took 20.7 us per item, a fifth
  // of the 102 us unfolded build, against 2.8 us here.
  const size_t capacity =
      std::bit_ceil(std::max<size_t>(2 * pairs.size(), 16));
  const size_t mask = capacity - 1;
  std::vector<int32_t> slots(capacity, -1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const ConceptSentimentPair& pair = pairs[i];
    const DedupeKey key = FoldKey(pair);
    size_t slot = DedupeKeyHash{}(key) & mask;
    while (slots[slot] >= 0 &&
           !(FoldKey(out.pairs[static_cast<size_t>(slots[slot])]) == key)) {
      slot = (slot + 1) & mask;
    }
    if (slots[slot] >= 0) {
      out.weights[static_cast<size_t>(slots[slot])] += 1.0;
    } else {
      slots[slot] = static_cast<int32_t>(out.pairs.size());
      out.pairs.push_back(pair);
      out.weights.push_back(1.0);
    }
    out.target_of[i] = slots[slot];
  }
  return out;
}

void CoverageGraph::PrepareForwardScatter(
    int num_classes, std::vector<std::vector<size_t>>& shard_degree) {
  OSRS_CHECK(!shard_degree.empty());
  // Serial prefix sum (O(classes × shards), cheap). shard_degree[s][u]
  // becomes the scatter cursor for shard s's slice of class u's forward
  // row; slices are consecutive in shard order, so after the scatter pass
  // it holds the slice end == the start of shard s + 1's slice.
  forward_offsets_.assign(static_cast<size_t>(num_classes) + 1, 0);
  size_t running = 0;
  for (int u = 0; u < num_classes; ++u) {
    forward_offsets_[static_cast<size_t>(u)] = running;
    for (std::vector<size_t>& degree : shard_degree) {
      size_t d = degree[static_cast<size_t>(u)];
      degree[static_cast<size_t>(u)] = running;
      running += d;
    }
  }
  forward_offsets_[static_cast<size_t>(num_classes)] = running;
  forward_endpoint_.resize(running);
  forward_distance_.resize(running);
}

void CoverageGraph::PrepareBackwardFill(
    int num_targets, const std::vector<size_t>& backward_degree) {
  backward_offsets_.assign(static_cast<size_t>(num_targets) + 1, 0);
  for (int w = 0; w < num_targets; ++w) {
    backward_offsets_[static_cast<size_t>(w) + 1] =
        backward_offsets_[static_cast<size_t>(w)] +
        backward_degree[static_cast<size_t>(w)];
  }
  OSRS_CHECK_EQ(backward_offsets_[static_cast<size_t>(num_targets)],
                forward_endpoint_.size());
  backward_endpoint_.resize(forward_endpoint_.size());
  backward_distance_.resize(forward_distance_.size());
}

CoverageGraph::EdgeLanes CoverageGraph::ForwardLanesOf(int u) const {
  OSRS_DCHECK_GE(u, 0);
  OSRS_DCHECK_LT(u, num_candidates());
  return ClassLanesOf(class_of_[static_cast<size_t>(u)]);
}

CoverageGraph::EdgeLanes CoverageGraph::ClassLanesOf(int c) const {
  OSRS_DCHECK_GE(c, 0);
  OSRS_DCHECK_LT(c, num_classes());
  const size_t begin = forward_offsets_[static_cast<size_t>(c)];
  return {forward_endpoint_.data() + begin, forward_distance_.data() + begin,
          forward_offsets_[static_cast<size_t>(c) + 1] - begin};
}

CoverageGraph::EdgeLanes CoverageGraph::BackwardLanesOf(int w) const {
  OSRS_DCHECK_GE(w, 0);
  OSRS_DCHECK_LT(w, num_targets());
  const size_t begin = backward_offsets_[static_cast<size_t>(w)];
  return {backward_endpoint_.data() + begin,
          backward_distance_.data() + begin,
          backward_offsets_[static_cast<size_t>(w) + 1] - begin};
}

double CoverageGraph::EmptySummaryCost() const {
  double total = 0.0;
  for (size_t w = 0; w < root_distance_.size(); ++w) {
    total += root_distance_[w] * target_weight(static_cast<int>(w));
  }
  return total;
}

double CoverageGraph::CostOfSelection(const std::vector<int>& selected) const {
  std::vector<float> best(root_distance_f32_.size());
  return CostOfSelection(std::span<const int>(selected),
                         std::span<float>(best));
}

double CoverageGraph::CostOfSelection(std::span<const int> selected,
                                      std::span<float> best_scratch) const {
  OSRS_DCHECK_EQ(best_scratch.size(), root_distance_f32_.size());
  std::copy(root_distance_f32_.begin(), root_distance_f32_.end(),
            best_scratch.begin());
  for (int u : selected) {
    const EdgeLanes lanes = ForwardLanesOf(u);
    for (size_t i = 0; i < lanes.size; ++i) {
      float& b = best_scratch[static_cast<size_t>(lanes.endpoint[i])];
      if (lanes.distance[i] < b) b = lanes.distance[i];
    }
  }
  double total = 0.0;
  for (size_t w = 0; w < best_scratch.size(); ++w) {
    total += static_cast<double>(best_scratch[w]) *
             target_weight(static_cast<int>(w));
  }
  return total;
}

double CoverageGraph::AverageCandidateDegree() const {
  if (num_candidates() == 0) return 0.0;
  size_t candidate_edges = 0;
  for (int32_t c : class_of_) {
    candidate_edges += forward_offsets_[static_cast<size_t>(c) + 1] -
                       forward_offsets_[static_cast<size_t>(c)];
  }
  return static_cast<double>(candidate_edges) /
         static_cast<double>(num_candidates());
}

}  // namespace osrs
