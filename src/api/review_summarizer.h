#ifndef OSRS_API_REVIEW_SUMMARIZER_H_
#define OSRS_API_REVIEW_SUMMARIZER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/execution_budget.h"
#include "common/status.h"
#include "core/model.h"
#include "obs/solver_stats.h"
#include "ontology/ontology.h"

namespace osrs {

/// Monotonic corpus-version counter. Every mutation of the served corpus
/// (a review added or removed, a re-annotation) bumps it; consumers that
/// key derived artifacts by the epoch — the serving layer's summary cache
/// today, the planned incremental engine's snapshots tomorrow — treat any
/// entry carrying an older epoch as stale without having to diff the
/// corpus itself. Thread-safe; bumping while solves are in flight is fine
/// (in-flight results are stamped with the epoch they started under).
///
/// Intentionally a bare atomic rather than a common/sync.h Mutex-guarded
/// counter: there is no multi-field invariant to protect, and the acq_rel
/// bump / acquire read pair is the whole ordering contract — a consumer
/// that observes epoch N also observes every corpus write made before
/// the bump to N. Atomics sit outside Clang's capability analysis by
/// design (see DESIGN.md, "Static analysis v2").
class CorpusEpoch {
 public:
  CorpusEpoch() = default;
  CorpusEpoch(const CorpusEpoch&) = delete;
  CorpusEpoch& operator=(const CorpusEpoch&) = delete;

  uint64_t value() const { return epoch_.load(std::memory_order_acquire); }

  /// Advances the epoch; returns the new value. Safe from any thread.
  uint64_t Bump() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Sets the counter to a recovered value. Only for startup recovery,
  /// before any consumer can observe the epoch — epochs must never move
  /// backwards once serving begins (cache keys and journal records both
  /// assume monotonicity).
  void Restore(uint64_t value) {
    epoch_.store(value, std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> epoch_{0};
};

/// Which §4 algorithm the facade runs.
enum class SummaryAlgorithm {
  kGreedy,              // Algorithm 2 (the paper's recommended default)
  kGreedyLazy,          // lazy-heap variant, same guarantee
  kIlp,                 // exact §4.2 (bundled branch-and-bound)
  kRandomizedRounding,  // Algorithm 1 over the LP relaxation
  kLocalSearch,         // greedy + swap polish (extension, see solver/)
};

const char* SummaryAlgorithmToString(SummaryAlgorithm algorithm);

/// Facade configuration.
struct ReviewSummarizerOptions {
  /// Sentiment threshold ε of Definition 1 (0.5 = the elbow choice, §5.3).
  double epsilon = 0.5;
  /// When set, ε is chosen per item by the §5.3 elbow method over a
  /// default grid instead of using `epsilon`. Costs one greedy run per
  /// grid point before the real solve. The probe runs under the request's
  /// deadline: one that trips mid-probe stops it, and the item is solved at
  /// `epsilon` and flagged `degraded`. Cancellation ends the request;
  /// `max_solver_work` does not bound the probe.
  bool auto_epsilon = false;
  SummaryAlgorithm algorithm = SummaryAlgorithm::kGreedy;
  SummaryGranularity granularity = SummaryGranularity::kSentences;
  /// Worker threads for coverage-graph construction (§4.1): targets are
  /// sharded across threads with per-thread edge buffers, and the merged
  /// graph is identical at every setting. 1 (the default) builds serially;
  /// 0 uses the hardware concurrency; negative values are an
  /// InvalidArgument error at Summarize time. Worth raising only for large
  /// items — graph construction is a small fraction of a typical solve.
  int graph_build_threads = 1;
  /// Upper bound on the bytes each coverage graph of the request (the
  /// item's graph and every auto_epsilon probe graph) may occupy; 0 (the
  /// default) means unlimited. The builder's counting pass knows the exact
  /// edge total before allocating, so an over-budget item fails fast with
  /// kResourceExhausted — a retryable code, so a BatchSummarizer
  /// RetryPolicy will re-attempt it (useful when the pressure is transient)
  /// and otherwise the item is isolated instead of OOM-killing the process.
  size_t max_memory_bytes = 0;
  /// Seed of the randomized-rounding draw (unused by other algorithms).
  /// Fallback attempts reseed deterministically (seed + attempt index) so a
  /// retried randomized rounding draws a fresh sample.
  uint64_t seed = 7;

  /// Wall-clock budget per Summarize call in milliseconds; <= 0 disables
  /// the deadline. When the deadline trips mid-solve the facade degrades
  /// along `fallback_chain` instead of failing (see below).
  double deadline_ms = 0.0;
  /// Deterministic work budget per solve attempt (same solver-defined unit
  /// as SummaryResult::work: B&B nodes, simplex iterations, greedy key
  /// updates, ...); <= 0 means unlimited. Unlike the wall-clock deadline
  /// this is reproducible, so tests can exercise degradation
  /// deterministically.
  int64_t max_solver_work = 0;
  /// Optional cooperative cancellation; the flag must outlive the call.
  /// Cancellation always surfaces as a kCancelled error — it is the one
  /// budget trip the fallback chain does not absorb.
  const CancellationFlag* cancellation = nullptr;
  /// When true, a ModelValidator pass (see validate/model_validator.h)
  /// runs before solving: the item's pairs, the sentence grouping, and the
  /// solver configuration are checked against the §2 model invariants.
  /// Error-severity findings fail the call with kInvalidArgument carrying
  /// the rendered report; warning findings are attached to
  /// ItemSummary::validation_warnings. Off by default because a trusted
  /// serving path should not pay the extra corpus walk per request.
  bool strict_validation = false;
  /// When true (the default) each Summarize call installs a per-solve
  /// trace (see obs/trace.h) and returns phase timings plus solver
  /// progress counters on ItemSummary::stats. Costs a handful of clock
  /// reads per solve; set false to skip even that.
  bool collect_stats = true;
  /// Algorithms tried, in order, after the primary `algorithm` trips its
  /// budget (or fails for any reason other than cancellation / invalid
  /// arguments). Entries are attempted verbatim — repeating the primary
  /// algorithm retries it (useful for randomized rounding, which reseeds
  /// per attempt). The final fallback attempt runs with only the
  /// cancellation flags attached, so unless cancelled the facade always
  /// returns a summary, flagged `degraded`.
  std::vector<SummaryAlgorithm> fallback_chain = {SummaryAlgorithm::kGreedy};
};

/// 64-bit fingerprint of every option field that can change the *outcome*
/// of a full-budget solve: epsilon / auto_epsilon, algorithm, granularity,
/// seed, max_solver_work, strict_validation, max_memory_bytes, and the
/// fallback chain. Runtime-only knobs that are proven not to affect the
/// solution — deadline_ms, cancellation, collect_stats, and
/// graph_build_threads (the sharded builder is bit-identical at any thread
/// count) — are deliberately excluded, so a cache keyed by this hash keeps
/// its hits across deployment-tuning changes. Two option structs with the
/// same fingerprint produce bit-identical non-degraded summaries for the
/// same item and k.
uint64_t OptionsFingerprint(const ReviewSummarizerOptions& options);

/// True when every full-budget answer under `options` is a prefix of any
/// deeper one: the k-pick answer is the first min(k, candidates) picks of
/// the answer at a depth >= k, at the cost recorded after that many picks
/// (ItemSummary::prefix_costs), so one deep solve answers every smaller k
/// bit for bit (TruncateToPrefix). Greedy has this property — each pick of
/// Algorithm 2, eager or lazy, is the argmax of the marginal gain given
/// the earlier picks, ties to the smaller id — unless something that
/// depends on k joins in. So it requires all of:
///   - `algorithm` and every `fallback_chain` entry greedy or lazy greedy,
///     so even a degraded answer carries its per-pick costs;
///   - `auto_epsilon` off: the elbow probe solves at k, so ε depends on k;
///   - `strict_validation` off: warning OSRS-SLV-002 depends on k;
///   - `max_solver_work` 0: a deeper solve could trip a work bound that
///     the k-pick solve would not.
bool IsPrefixClosed(const ReviewSummarizerOptions& options);

/// One representative in a summary.
struct SummaryEntry {
  /// Human-readable rendering: "concept = +0.65" for pair granularity, the
  /// sentence text for sentences, the first sentence + review index for
  /// reviews.
  std::string display;
  /// The underlying pair (pair granularity) or the first pair of the
  /// selected sentence/review.
  ConceptSentimentPair pair;
  int review_index = -1;
  int sentence_index = -1;  // -1 at pair/review granularity
};

/// A computed summary plus diagnostics.
struct ItemSummary {
  std::vector<SummaryEntry> entries;
  /// Definition 2 coverage cost of the selection.
  double cost = 0.0;
  /// Greedy only: the cost after each pick, [0] being the empty summary
  /// (SummaryResult::prefix_costs), so TruncateToPrefix can read any
  /// shorter answer off this one. Empty for the other algorithms; not part
  /// of ToJson.
  std::vector<double> prefix_costs;
  /// Solver wall-clock seconds (excludes graph construction).
  double solver_seconds = 0.0;
  /// The ε actually used (differs from the configured one under
  /// auto_epsilon).
  double epsilon = 0.0;
  size_t num_pairs = 0;
  size_t num_candidates = 0;
  size_t num_edges = 0;

  /// True when the summary is not the configured algorithm's full-budget
  /// answer: a budget tripped and either a fallback algorithm produced the
  /// result or the primary stopped early with its best incumbent.
  bool degraded = false;
  /// The algorithm that produced `entries` (differs from the configured
  /// one after a fallback).
  SummaryAlgorithm algorithm_used = SummaryAlgorithm::kGreedy;
  /// Why degradation happened (kOk when `degraded` is false): typically
  /// kDeadlineExceeded or kResourceExhausted.
  StatusCode stop_reason = StatusCode::kOk;
  /// Total wall-clock milliseconds spent in Summarize, across every
  /// attempt (includes graph construction, unlike `solver_seconds`).
  double budget_spent_ms = 0.0;
  /// Warning-severity findings of the strict-validation pass, rendered as
  /// "warning OSRS-XXX-NNN [location]: message" lines. Always empty unless
  /// ReviewSummarizerOptions::strict_validation is set.
  std::vector<std::string> validation_warnings;
  /// Per-phase timings and solver progress counters of this solve (empty
  /// when ReviewSummarizerOptions::collect_stats is false).
  obs::SolverStats stats;
  /// Transient-failure retries this summary consumed before succeeding.
  /// Always 0 from ReviewSummarizer::Summarize itself — retrying is
  /// BatchSummarizer's job (see BatchSummarizerOptions::retry_policy),
  /// which stamps the count on the entry it returns.
  int retries = 0;
  /// Log-correlation identity of the serving request that produced this
  /// summary (see obs/request_trace.h). Stamped by SummaryServer; 0 for
  /// summaries computed outside the serving layer.
  uint64_t request_id = 0;
  uint64_t trace_id = 0;

  /// Compact JSON rendering (entries, cost, diagnostics) for tooling.
  ///
  /// Diagnostic fields live under one "diagnostics" object (degraded,
  /// algorithm, stop_reason, budget_spent_ms, solver_seconds, retries,
  /// request_id, trace_id — the hex log-correlation id —
  /// validation_warnings, stats) and nowhere else; README.md
  /// ("Observability") has the migration note for the former top-level
  /// copies.
  std::string ToJson() const;
};

/// Reads the k-pick answer off `summary` in place: keeps its first
/// min(k, num_candidates) entries and takes the cost after that many picks
/// from `prefix_costs`. Every other field (epsilon, graph sizes, timings,
/// stats, degraded) stays that of the solve that produced `summary`.
/// Returns false, leaving `summary` untouched, when it holds fewer picks
/// than that or lacks their cost; a summary already holding exactly that
/// many picks is returned as is, whatever algorithm produced it.
bool TruncateToPrefix(int k, ItemSummary* summary);

/// The library's top-level entry point: reviews of one item in, the k most
/// representative pairs / sentences / reviews out, using the ontology- and
/// sentiment-aware coverage framework of §2 with the §4 algorithms.
///
/// Typical use:
///
///   Ontology phones = BuildCellPhoneHierarchy();
///   ReviewSummarizer summarizer(&phones, {});
///   auto summary = summarizer.Summarize(item, /*k=*/5);
///   for (const auto& entry : summary->entries) std::puts(entry.display.c_str());
///
/// Items must carry concept-sentiment pairs; run ReviewAnnotator first for
/// raw text. The ontology must outlive the summarizer.
class ReviewSummarizer {
 public:
  ReviewSummarizer(const Ontology* ontology,
                   ReviewSummarizerOptions options = {});

  /// Summarizes `item` with (up to) k representatives. k larger than the
  /// candidate count is truncated; k < 0 is an error, as are non-finite or
  /// out-of-range sentiments anywhere in the item.
  ///
  /// Budgets come from the options (deadline_ms / max_solver_work /
  /// cancellation). When a budget trips the facade walks `fallback_chain`;
  /// only cancellation (kCancelled), invalid input, or an already-expired
  /// budget at entry surface as errors.
  Result<ItemSummary> Summarize(const Item& item, int k) const;

  /// As above, additionally tightened by `external` — used by
  /// BatchSummarizer to impose a whole-batch deadline and cancellation on
  /// top of the per-item options.
  Result<ItemSummary> Summarize(const Item& item, int k,
                                const ExecutionBudget& external) const;

  const ReviewSummarizerOptions& options() const { return options_; }

 private:
  const Ontology* ontology_;
  ReviewSummarizerOptions options_;
};

}  // namespace osrs

#endif  // OSRS_API_REVIEW_SUMMARIZER_H_
