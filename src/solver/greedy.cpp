#include "solver/greedy.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/indexed_heap.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace osrs {
namespace {

/// Marginal gain of adding candidate u when each target w is currently
/// covered at distance best[w]: Σ_w max(0, best[w] - d(u, w)), streamed
/// through the dispatched SIMD kernel over u's SoA row. Each edge scanned
/// is one coverage-distance evaluation, tallied in `evals` (a reference —
/// the former int64_t* out-param accepted null and crashed at the first
/// edge) and flushed to the trace once per phase.
double GainOf(const CoverageGraph& graph, const float* best, int u,
              EvalCounter& evals) {
  OSRS_DCHECK(std::addressof(evals) != nullptr);
  const CoverageGraph::EdgeLanes lanes = graph.ForwardLanesOf(u);
  evals.distance_evals += static_cast<int64_t>(lanes.size);
  return simd::GainReduce(lanes.endpoint, lanes.distance, lanes.size, best,
                          graph.target_weights_or_null());
}

obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.greedy.solves");
  return counter;
}

Status ValidateK(const CoverageGraph& graph, int k) {
  if (k < 0 || k > graph.num_candidates()) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [0, %d]", k, graph.num_candidates()));
  }
  return Status::OK();
}

/// Candidates between budget polls while scanning the initial gains.
constexpr int kInitCheckPeriod = 256;

/// Max-heap of (possibly stale gain, candidate) entries for the lazy
/// strategy, over arena storage. Entries carry a strict total order (gain
/// descending, id ascending — each live candidate has at most one entry),
/// so the pop sequence is uniquely determined and implementation-
/// independent; this matches the std::priority_queue it replaces exactly.
class LazyMaxHeap {
 public:
  struct Entry {
    double gain;
    int32_t id;
  };

  LazyMaxHeap(size_t capacity, Arena& arena)
      : entries_(arena.AllocateArray<Entry>(capacity)) {}

  bool empty() const { return size_ == 0; }
  const Entry& Top() const {
    OSRS_DCHECK(size_ > 0);
    return entries_[0];
  }
  void Push(Entry entry) {
    OSRS_DCHECK(size_ < entries_.size());
    size_t pos = size_++;
    entries_[pos] = entry;
    while (pos > 0) {
      size_t parent = (pos - 1) / 2;
      if (!Precedes(entries_[pos], entries_[parent])) break;
      std::swap(entries_[pos], entries_[parent]);
      pos = parent;
    }
  }
  Entry Pop() {
    OSRS_DCHECK(size_ > 0);
    Entry top = entries_[0];
    entries_[0] = entries_[--size_];
    size_t pos = 0;
    while (true) {
      size_t left = 2 * pos + 1;
      size_t right = left + 1;
      size_t best = pos;
      if (left < size_ && Precedes(entries_[left], entries_[best]))
        best = left;
      if (right < size_ && Precedes(entries_[right], entries_[best]))
        best = right;
      if (best == pos) break;
      std::swap(entries_[pos], entries_[best]);
      pos = best;
    }
    return top;
  }

 private:
  static bool Precedes(const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    return a.id < b.id;  // smaller id wins ties, like the eager heap
  }

  std::span<Entry> entries_;
  size_t size_ = 0;
};

}  // namespace

GreedySummarizer::GreedySummarizer(GreedyOptions options)
    : options_(options) {}

std::string GreedySummarizer::name() const {
  return options_.heap == GreedyOptions::Heap::kEager ? "Greedy"
                                                      : "Greedy(lazy)";
}

Result<SummaryResult> GreedySummarizer::Summarize(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  OSRS_RETURN_IF_ERROR(ValidateK(graph, k));
  return options_.heap == GreedyOptions::Heap::kEager
             ? SummarizeEager(graph, k, budget)
             : SummarizeLazy(graph, k, budget);
}

Result<SummaryResult> GreedySummarizer::SummarizeEager(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  Stopwatch watch;
  const int num_targets = graph.num_targets();
  const int num_candidates = graph.num_candidates();
  const double* target_weights = graph.target_weights_or_null();

  // All per-solve scratch lives in the thread's arena and is reclaimed
  // wholesale by the frame; nothing below may escape into the result or a
  // Status (see DESIGN.md, "Performance architecture"). best[] is float:
  // coverage distances are integral hop counts, exact in float, and the
  // float lane is what the gain kernel streams.
  Arena& arena = PerThreadSolveArena();
  ArenaFrame frame(arena);
  std::span<float> best = arena.AllocateArray<float>(
      static_cast<size_t>(num_targets));
  std::copy(graph.root_distances_f32(),
            graph.root_distances_f32() + num_targets, best.begin());

  // Initialize the max-heap with δ(p, {r}) for every candidate. Before any
  // selection there is no incumbent, so a tripped budget here is a plain
  // error.
  EvalCounter evals;
  std::span<double> initial_gain =
      arena.AllocateArray<double>(static_cast<size_t>(num_candidates));
  {
    obs::TraceSpan init_span(obs::Phase::kHeapInit);
    for (int u = 0; u < num_candidates; ++u) {
      if (u % kInitCheckPeriod == 0) {
        Status init_status = budget.Check();
        if (!init_status.ok()) {
          obs::TraceStat(obs::Stat::kDistanceEvaluations,
                         evals.distance_evals);
          return init_status;
        }
      }
      initial_gain[static_cast<size_t>(u)] =
          GainOf(graph, best.data(), u, evals);
    }
  }
  obs::TraceStat(obs::Stat::kCandidatesConsidered, num_candidates);
  IndexedMaxHeap heap(initial_gain, arena);

  SummaryResult result;
  result.cost = graph.EmptySummaryCost();
  result.selected.reserve(static_cast<size_t>(k));
  result.prefix_costs.reserve(static_cast<size_t>(k) + 1);
  result.prefix_costs.push_back(result.cost);
  int64_t key_updates = 0;
  int64_t heap_pops = 0;

  // Accumulates per-candidate key deltas across all targets improved by
  // one selection, so each affected candidate gets a single heap update.
  // Dense array + touched list instead of a hash map: deltas are strictly
  // positive, so pending_delta[c] == 0.0 marks "not yet touched this
  // round" and the reset after applying is O(touched).
  std::span<double> pending_delta =
      arena.AllocateArray<double>(static_cast<size_t>(num_candidates));
  std::fill(pending_delta.begin(), pending_delta.end(), 0.0);
  std::span<int32_t> touched =
      arena.AllocateArray<int32_t>(static_cast<size_t>(num_candidates));

  obs::TraceSpan select_span(obs::Phase::kGreedyIterations);
  for (int round = 0; round < k && !heap.empty(); ++round) {
    // Injected failures abort the solve with the injected Status — the
    // facade's fallback chain then decides what (if anything) runs next.
    OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.solver.step"));
    Status budget_status = budget.Check(key_updates);
    if (!budget_status.ok()) {
      if (budget_status.code() == StatusCode::kCancelled) {
        return budget_status;
      }
      // The partial selection is a valid (smaller) summary: return it as
      // the incumbent instead of discarding the rounds already done.
      result.approximate = true;
      result.stop_reason = budget_status.code();
      break;
    }
    int chosen = heap.PopMax();
    ++heap_pops;
    result.selected.push_back(chosen);
    size_t num_touched = 0;

    // Apply the selection: improve best[] along chosen's edges, and record
    // how the improvement shrinks the gains of other coverers of those
    // targets (the neighbor-of-neighbor updates of Algorithm 2, lines
    // 7-9). This stays scalar — the backward walk needs the old best per
    // target anyway — while the gain scans above and below vectorize.
    const CoverageGraph::EdgeLanes edges = graph.ForwardLanesOf(chosen);
    evals.distance_evals += static_cast<int64_t>(edges.size);
    for (size_t i = 0; i < edges.size; ++i) {
      const int32_t w = edges.endpoint[i];
      float& current = best[static_cast<size_t>(w)];
      if (edges.distance[i] >= current) continue;
      const double old_best = static_cast<double>(current);
      const double new_best = static_cast<double>(edges.distance[i]);
      const double target_weight =
          target_weights == nullptr ? 1.0
                                    : target_weights[static_cast<size_t>(w)];
      current = edges.distance[i];
      result.cost -= (old_best - new_best) * target_weight;
      const CoverageGraph::EdgeLanes covering = graph.BackwardLanesOf(w);
      for (size_t j = 0; j < covering.size; ++j) {
        const int32_t candidate = covering.endpoint[j];
        if (!heap.Contains(candidate)) continue;
        const double back_distance =
            static_cast<double>(covering.distance[j]);
        double before = std::max(0.0, old_best - back_distance);
        double after = std::max(0.0, new_best - back_distance);
        if (before != after) {
          double& slot = pending_delta[static_cast<size_t>(candidate)];
          if (slot == 0.0) touched[num_touched++] = candidate;
          slot += (before - after) * target_weight;
        }
      }
    }
    for (size_t t = 0; t < num_touched; ++t) {
      const int candidate = touched[t];
      heap.UpdateKey(candidate, heap.KeyOf(candidate) -
                                    pending_delta[static_cast<size_t>(
                                        candidate)]);
      pending_delta[static_cast<size_t>(candidate)] = 0.0;
      ++key_updates;
    }
    result.prefix_costs.push_back(result.cost);
  }

  obs::TraceStat(obs::Stat::kHeapPops, heap_pops);
  obs::TraceStat(obs::Stat::kKeyUpdates, key_updates);
  obs::TraceStat(obs::Stat::kDistanceEvaluations, evals.distance_evals);
  SolvesCounter()->Increment();
  result.seconds = watch.ElapsedSeconds();
  result.work = key_updates;
  return result;
}

Result<SummaryResult> GreedySummarizer::SummarizeLazy(
    const CoverageGraph& graph, int k, const ExecutionBudget& budget) {
  Stopwatch watch;
  const int num_targets = graph.num_targets();
  const int num_candidates = graph.num_candidates();

  Arena& arena = PerThreadSolveArena();
  ArenaFrame frame(arena);
  std::span<float> best =
      arena.AllocateArray<float>(static_cast<size_t>(num_targets));
  std::copy(graph.root_distances_f32(),
            graph.root_distances_f32() + num_targets, best.begin());

  // Max-heap of (possibly stale gain, candidate). Staleness is safe
  // because the gain is monotone non-increasing as F grows
  // (submodularity): a recomputed gain still at the top is exactly the
  // true maximum. Each candidate has at most one live entry (a pop either
  // retires or re-pushes it), so capacity n suffices.
  LazyMaxHeap heap(static_cast<size_t>(num_candidates), arena);
  std::span<uint8_t> selected_flag =
      arena.AllocateArray<uint8_t>(static_cast<size_t>(num_candidates));
  std::fill(selected_flag.begin(), selected_flag.end(), uint8_t{0});
  EvalCounter evals;
  {
    obs::TraceSpan init_span(obs::Phase::kHeapInit);
    for (int u = 0; u < num_candidates; ++u) {
      if (u % kInitCheckPeriod == 0) {
        Status init_status = budget.Check();
        if (!init_status.ok()) {
          obs::TraceStat(obs::Stat::kDistanceEvaluations,
                         evals.distance_evals);
          return init_status;
        }
      }
      heap.Push({GainOf(graph, best.data(), u, evals), u});
    }
  }
  obs::TraceStat(obs::Stat::kCandidatesConsidered, num_candidates);

  SummaryResult result;
  result.cost = graph.EmptySummaryCost();
  result.selected.reserve(static_cast<size_t>(k));
  result.prefix_costs.reserve(static_cast<size_t>(k) + 1);
  result.prefix_costs.push_back(result.cost);
  int64_t recomputes = 0;
  int64_t heap_pops = 0;

  obs::TraceSpan select_span(obs::Phase::kGreedyIterations);
  for (int round = 0; round < k && !heap.empty(); ++round) {
    OSRS_RETURN_IF_ERROR(OSRS_FAILPOINT("osrs.solver.step"));
    Status budget_status = budget.Check(recomputes);
    if (!budget_status.ok()) {
      if (budget_status.code() == StatusCode::kCancelled) {
        return budget_status;
      }
      result.approximate = true;
      result.stop_reason = budget_status.code();
      break;
    }
    while (true) {
      const int u = heap.Pop().id;
      ++heap_pops;
      if (selected_flag[static_cast<size_t>(u)] != 0) continue;
      double fresh = GainOf(graph, best.data(), u, evals);
      ++recomputes;
      if (heap.empty() || fresh >= heap.Top().gain) {
        selected_flag[static_cast<size_t>(u)] = 1;
        result.selected.push_back(u);
        // Apply the pick with the vectorized min-update: best[] improves
        // in place and the returned covered-cost decrease follows the
        // fixed accumulation-order contract, so it is bit-identical
        // between the scalar and AVX2 backends.
        const CoverageGraph::EdgeLanes edges = graph.ForwardLanesOf(u);
        evals.distance_evals += static_cast<int64_t>(edges.size);
        result.cost -= simd::ApplyPickMin(edges.endpoint, edges.distance,
                                          edges.size, best.data(),
                                          graph.target_weights_or_null());
        result.prefix_costs.push_back(result.cost);
        break;
      }
      heap.Push({fresh, u});
    }
  }

  obs::TraceStat(obs::Stat::kHeapPops, heap_pops);
  obs::TraceStat(obs::Stat::kGainRecomputes, recomputes);
  obs::TraceStat(obs::Stat::kDistanceEvaluations, evals.distance_evals);
  SolvesCounter()->Increment();
  result.seconds = watch.ElapsedSeconds();
  result.work = recomputes;
  return result;
}

}  // namespace osrs
