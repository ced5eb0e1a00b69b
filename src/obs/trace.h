#ifndef OSRS_OBS_TRACE_H_
#define OSRS_OBS_TRACE_H_

// Per-solve phase tracing. A SolveTrace is a small fixed-size accumulator
// of per-phase timings (enum-indexed, so the hot path never touches a
// string or allocates) plus the solver progress counters the paper's
// runtime analysis talks about (heap pops, pivots, rounding trials, ...).
//
// Collection is cooperative and thread-local: a caller installs a trace
// with Tracer::Scope, and every TraceSpan / TraceStat call below it on the
// same thread records into that trace. With no trace installed (the
// default) a span is one thread-local load, one branch, and one clock
// read.
//
// RAII spans keep nesting balanced on every exit path, including solver
// early returns on a tripped ExecutionBudget: open_spans() is 0 again the
// moment the stack unwinds.

#include <cstdint>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace osrs::obs {

/// The span taxonomy (documented in README.md, "Observability"). One enum
/// value per instrumented phase; PhaseName gives the stable wire name.
enum class Phase : uint8_t {
  kBuildCoverageGraph = 0,  // §4.1 bipartite graph construction
  kHeapInit,                // greedy initial-gain scan + heap build
  kGreedyIterations,        // greedy selection rounds
  kLpRelaxation,            // simplex solve of the k-median LP
  kRoundingTrials,          // Algorithm 1 sampling (or LP-top-k rounding)
  kBranchAndBound,          // ILP branch-and-bound search
  kLocalSearchPasses,       // swap-polish passes (one span per pass)
  kExhaustiveEnumeration,   // oracle subset enumeration
  kReductionBuild,          // Theorem 1 Set-Cover reduction construction
  kSolveAttempt,            // one facade solver attempt (primary/fallback)
};
inline constexpr int kNumPhases = 10;

/// Stable lowercase snake_case name, e.g. "build_coverage_graph".
const char* PhaseName(Phase phase);

/// Solver progress counters surfaced per solve.
enum class Stat : uint8_t {
  kCandidatesConsidered = 0,  // candidates scanned for initial gains
  kHeapPops,                  // greedy heap extractions (incl. lazy rescans)
  kKeyUpdates,                // eager neighbor-of-neighbor key updates
  kGainRecomputes,            // lazy-heap gain recomputations
  kDistanceEvaluations,       // coverage-edge weight evaluations
  kSimplexPivots,             // simplex iterations across all LP solves
  kBnbNodes,                  // branch-and-bound nodes expanded
  kRoundingTrials,            // rounding draws completed
  kSwapsApplied,              // local-search swaps applied
  kSubsetsEvaluated,          // exhaustive subsets costed
  kGraphEdgesBuilt,           // coverage-graph edges assembled
};
inline constexpr int kNumStats = 11;

/// Stable lowercase snake_case name, e.g. "distance_evaluations".
const char* StatName(Stat stat);

/// Fixed-size per-solve accumulator: nanoseconds + entry count per phase,
/// one int64 per Stat. Not thread-safe — each trace belongs to the thread
/// it is installed on (BatchSummarizer workers each install their own).
class SolveTrace {
 public:
  void RecordPhase(Phase phase, int64_t nanos) {
    phase_nanos_[static_cast<size_t>(phase)] += nanos;
    phase_calls_[static_cast<size_t>(phase)] += 1;
  }
  void AddStat(Stat stat, int64_t delta) {
    stats_[static_cast<size_t>(stat)] += delta;
  }

  /// Span bookkeeping (used by TraceSpan; exposed so tests can assert the
  /// balance invariant).
  void EnterSpan() {
    ++open_spans_;
    if (open_spans_ > max_depth_) max_depth_ = open_spans_;
  }
  void ExitSpan() { --open_spans_; }

  int64_t phase_nanos(Phase phase) const {
    return phase_nanos_[static_cast<size_t>(phase)];
  }
  int64_t phase_calls(Phase phase) const {
    return phase_calls_[static_cast<size_t>(phase)];
  }
  int64_t stat(Stat stat) const {
    return stats_[static_cast<size_t>(stat)];
  }
  /// 0 whenever no span is live — i.e. always, outside span scopes, even
  /// after a solver bailed out mid-phase on a deadline.
  int open_spans() const { return open_spans_; }
  /// Deepest nesting observed.
  int max_depth() const { return max_depth_; }

  /// True when nothing was recorded.
  bool empty() const;

  void Reset();

  /// Accumulates every phase and stat of `other` into this trace.
  void MergeFrom(const SolveTrace& other);

 private:
  int64_t phase_nanos_[kNumPhases] = {};
  int64_t phase_calls_[kNumPhases] = {};
  int64_t stats_[kNumStats] = {};
  int open_spans_ = 0;
  int max_depth_ = 0;
};

/// Thread-local installation point for the active SolveTrace.
class Tracer {
 public:
  /// The trace installed on this thread, or null (collection off).
  static SolveTrace* current() { return current_; }

  /// RAII installer: spans/stats on this thread record into `trace` until
  /// the scope dies; the previous trace (usually none) is restored after.
  /// Pass Tracer::current() to keep whatever is installed.
  class Scope {
   public:
    explicit Scope(SolveTrace* trace) : previous_(current_) {
      current_ = trace;
    }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SolveTrace* const previous_;
  };

 private:
  // Defined in-class with constinit so the compiler proves there is no
  // dynamic TLS initialization and accesses the slot directly instead of
  // through the thread_local init wrapper. The wrapper costs an extra call
  // on every instrumented hot-path stat, and GCC's UBSan misreports it as
  // a "load of null pointer" (false positive), failing the CI sanitizer
  // stage.
  static constinit inline thread_local SolveTrace* current_ = nullptr;
};

/// RAII phase timer: records elapsed nanoseconds under `phase` into the
/// thread's installed trace (no-op when none is installed).
class TraceSpan {
 public:
  explicit TraceSpan(Phase phase)
      : trace_(Tracer::current()), phase_(phase) {
    if (trace_ != nullptr) {
      trace_->EnterSpan();
      watch_.Reset();
    }
  }
  ~TraceSpan() {
    if (trace_ != nullptr) {
      trace_->RecordPhase(phase_, watch_.ElapsedNanos());
      trace_->ExitSpan();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  SolveTrace* const trace_;
  const Phase phase_;
  Stopwatch watch_;
};

/// Adds `delta` to `stat` on the installed trace, if any. Call once per
/// phase with a locally accumulated total, not from inner loops.
inline void TraceStat(Stat stat, int64_t delta) {
  SolveTrace* trace = Tracer::current();
  if (trace != nullptr) trace->AddStat(stat, delta);
}

}  // namespace osrs::obs

#endif  // OSRS_OBS_TRACE_H_
