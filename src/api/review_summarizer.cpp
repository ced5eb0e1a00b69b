#include "api/review_summarizer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/distance.h"
#include "coverage/item_graph.h"
#include "eval/elbow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/greedy.h"
#include "solver/ilp_summarizer.h"
#include "solver/local_search.h"
#include "solver/randomized_rounding.h"
#include "solver/summarizer.h"
#include "validate/model_validator.h"

namespace osrs {

const char* SummaryAlgorithmToString(SummaryAlgorithm algorithm) {
  switch (algorithm) {
    case SummaryAlgorithm::kGreedy:
      return "Greedy";
    case SummaryAlgorithm::kGreedyLazy:
      return "Greedy(lazy)";
    case SummaryAlgorithm::kIlp:
      return "ILP";
    case SummaryAlgorithm::kRandomizedRounding:
      return "RR";
    case SummaryAlgorithm::kLocalSearch:
      return "Greedy+swap";
  }
  return "unknown";
}

namespace {

std::unique_ptr<Summarizer> MakeSolver(SummaryAlgorithm algorithm,
                                       uint64_t seed) {
  switch (algorithm) {
    case SummaryAlgorithm::kGreedy:
      return std::make_unique<GreedySummarizer>();
    case SummaryAlgorithm::kGreedyLazy: {
      GreedyOptions greedy_options;
      greedy_options.heap = GreedyOptions::Heap::kLazy;
      return std::make_unique<GreedySummarizer>(greedy_options);
    }
    case SummaryAlgorithm::kIlp:
      return std::make_unique<IlpSummarizer>();
    case SummaryAlgorithm::kRandomizedRounding: {
      RandomizedRoundingOptions rr_options;
      rr_options.seed = seed;
      return std::make_unique<RandomizedRoundingSummarizer>(rr_options);
    }
    case SummaryAlgorithm::kLocalSearch:
      return std::make_unique<LocalSearchSummarizer>();
  }
  return std::make_unique<GreedySummarizer>();
}

Status StrictValidationError(const ValidationReport& report) {
  return Status::InvalidArgument("strict validation failed:\n" +
                                 report.ToString());
}

obs::Counter* SummariesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.api.summaries");
  return counter;
}

obs::Histogram* SolveMsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "osrs.api.solve_ms",
          {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
           2500, 5000});
  return histogram;
}

/// Mixes each field into the running hash through the splitmix64
/// finalizer, so field order and adjacent-value collisions cannot cancel
/// out.
uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + 0x9E3779B97F4A7C15ull + (seed << 6)));
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t OptionsFingerprint(const ReviewSummarizerOptions& options) {
  uint64_t h = 0x05B5E0A1C0FFEE01ull;  // fingerprint-format version tag
  h = HashCombine(h, BitsOf(options.epsilon));
  h = HashCombine(h, options.auto_epsilon ? 1 : 0);
  h = HashCombine(h, static_cast<uint64_t>(options.algorithm));
  h = HashCombine(h, static_cast<uint64_t>(options.granularity));
  h = HashCombine(h, options.seed);
  h = HashCombine(h, static_cast<uint64_t>(options.max_solver_work));
  h = HashCombine(h, options.strict_validation ? 1 : 0);
  h = HashCombine(h, static_cast<uint64_t>(options.max_memory_bytes));
  h = HashCombine(h, options.fallback_chain.size());
  for (SummaryAlgorithm fallback : options.fallback_chain) {
    h = HashCombine(h, static_cast<uint64_t>(fallback));
  }
  return h;
}

bool IsPrefixClosed(const ReviewSummarizerOptions& options) {
  auto greedy = [](SummaryAlgorithm algorithm) {
    return algorithm == SummaryAlgorithm::kGreedy ||
           algorithm == SummaryAlgorithm::kGreedyLazy;
  };
  return greedy(options.algorithm) &&
         std::all_of(options.fallback_chain.begin(),
                     options.fallback_chain.end(), greedy) &&
         !options.auto_epsilon && !options.strict_validation &&
         options.max_solver_work == 0;
}

bool TruncateToPrefix(int k, ItemSummary* summary) {
  const size_t picks = std::min(static_cast<size_t>(std::max(k, 0)),
                                summary->num_candidates);
  if (picks == summary->entries.size()) return true;
  if (picks > summary->entries.size() ||
      picks >= summary->prefix_costs.size()) {
    return false;
  }
  summary->entries.resize(picks);
  summary->cost = summary->prefix_costs[picks];
  summary->prefix_costs.resize(picks + 1);
  return true;
}

std::string ItemSummary::ToJson() const {
  std::string warnings_json = "[";
  for (size_t i = 0; i < validation_warnings.size(); ++i) {
    if (i > 0) warnings_json += ',';
    warnings_json += '"';
    warnings_json += JsonEscape(validation_warnings[i]);
    warnings_json += '"';
  }
  warnings_json += ']';

  std::string out = StrFormat(
      "{\"cost\":%.6g,\"epsilon\":%.6g,"
      "\"num_pairs\":%zu,\"num_candidates\":%zu,\"num_edges\":%zu,"
      "\"diagnostics\":{\"degraded\":%s,\"algorithm\":\"%s\","
      "\"stop_reason\":\"%s\",\"budget_spent_ms\":%.3f,"
      "\"solver_seconds\":%.6g,\"retries\":%d,"
      "\"request_id\":%llu,\"trace_id\":\"%016llx\","
      "\"validation_warnings\":%s,\"stats\":%s},",
      cost, epsilon, num_pairs, num_candidates, num_edges,
      degraded ? "true" : "false",
      JsonEscape(SummaryAlgorithmToString(algorithm_used)).c_str(),
      StatusCodeToString(stop_reason), budget_spent_ms, solver_seconds,
      retries, static_cast<unsigned long long>(request_id),
      static_cast<unsigned long long>(trace_id), warnings_json.c_str(),
      stats.ToJson().c_str());
  out += "\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"display\":\"%s\",\"review\":%d,\"sentence\":%d,"
        "\"concept\":%d,\"sentiment\":%.6g}",
        JsonEscape(entries[i].display).c_str(), entries[i].review_index,
        entries[i].sentence_index, entries[i].pair.concept_id,
        entries[i].pair.sentiment);
  }
  out += "]}";
  return out;
}

ReviewSummarizer::ReviewSummarizer(const Ontology* ontology,
                                   ReviewSummarizerOptions options)
    : ontology_(ontology), options_(options) {
  OSRS_CHECK(ontology != nullptr);
  OSRS_CHECK(ontology->finalized());
  OSRS_CHECK_GT(options.epsilon, 0.0);
}

Result<ItemSummary> ReviewSummarizer::Summarize(const Item& item,
                                                int k) const {
  return Summarize(item, k, ExecutionBudget::Unlimited());
}

Result<ItemSummary> ReviewSummarizer::Summarize(
    const Item& item, int k, const ExecutionBudget& external) const {
  if (k < 0) return Status::InvalidArgument(StrFormat("k=%d negative", k));
  if (options_.graph_build_threads < 0) {
    return Status::InvalidArgument(StrFormat(
        "graph_build_threads=%d negative", options_.graph_build_threads));
  }

  // Strict mode front-loads the corpus-integrity checks so a dangling
  // concept reference surfaces as a structured report instead of tripping
  // an OSRS_CHECK deep inside the ontology walk.
  ModelValidator validator;
  ValidationReport strict_report = validator.MakeReport();
  if (options_.strict_validation) {
    validator.CheckItem(item, ontology_->num_concepts(), &strict_report);
    if (!strict_report.ok()) return StrictValidationError(strict_report);
  }
  OSRS_RETURN_IF_ERROR(ValidateItem(item));

  Stopwatch total_watch;
  ExecutionBudget budget;
  if (options_.deadline_ms > 0.0) budget.SetDeadlineMs(options_.deadline_ms);
  if (options_.max_solver_work > 0) budget.SetMaxWork(options_.max_solver_work);
  budget.AddCancellation(options_.cancellation);
  budget = budget.TightenedBy(external);
  // A budget already expired at entry (e.g. a batch deadline that tripped
  // before this item was claimed) is an error, not a degradation: no work
  // has been done, so there is nothing to degrade to.
  OSRS_RETURN_IF_ERROR(budget.Check());

  // Everything below (elbow probing, graph construction, every solver
  // attempt) records into this call's trace; when collect_stats is off the
  // currently installed trace — usually none — stays in effect.
  obs::SolveTrace trace;
  obs::Tracer::Scope trace_scope(options_.collect_stats ? &trace
                                                        : obs::Tracer::current());

  // Every graph this request builds, the elbow probes included, goes
  // through the gated builders under these options. Their failures
  // (memory budget, injected faults) have no partial result to degrade to;
  // surface them for the caller's retry policy — kResourceExhausted and
  // injected codes are retryable.
  CoverageBuildOptions build_options;
  build_options.num_threads = options_.graph_build_threads;
  build_options.max_memory_bytes = options_.max_memory_bytes;
  bool degraded = false;
  StatusCode stop_reason = StatusCode::kOk;
  double epsilon = options_.epsilon;
  if (options_.auto_epsilon) {
    auto pairs = PairsOf(CollectPairs(item));
    if (!pairs.empty()) {
      Result<ElbowResult> elbow = SelectEpsilonByElbow(
          *ontology_, pairs, std::max(1, k),
          {0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.2, 1.6, 2.0}, build_options,
          budget);
      if (elbow.ok()) {
        epsilon = elbow->chosen_epsilon;
      } else {
        // A probe stopped by the deadline leaves the configured ε, and the
        // solve below degrades as any deadline-tripped solve does.
        // Cancellation, and a probe build that failed within budget, end
        // the request.
        Status tripped = budget.Check();
        if (tripped.ok() || tripped.code() == StatusCode::kCancelled) {
          return elbow.status();
        }
        degraded = true;
        stop_reason = tripped.code();
      }
    }
  }

  PairDistance distance(ontology_, epsilon);
  Result<ItemGraph> built =
      TryBuildItemGraph(distance, item, options_.granularity, build_options);
  OSRS_RETURN_IF_ERROR(built.status());
  ItemGraph item_graph = std::move(built).value();
  int effective_k = std::min<int>(k, item_graph.graph.num_candidates());

  if (options_.strict_validation) {
    validator.CheckSolverConfig(
        k, epsilon, static_cast<size_t>(item_graph.graph.num_candidates()),
        &strict_report);
    validator.CheckGroups(item_graph.group_begin,
                          item_graph.occurrences.size(), &strict_report);
    if (!strict_report.ok()) return StrictValidationError(strict_report);
  }

  // The primary algorithm followed by the fallback chain, attempted
  // verbatim (repeats retry with a fresh seed). Each attempt gets the full
  // work budget; the wall-clock deadline is absolute and therefore shared,
  // which is why the last fallback drops everything but cancellation.
  std::vector<SummaryAlgorithm> attempts;
  attempts.reserve(1 + options_.fallback_chain.size());
  attempts.push_back(options_.algorithm);
  attempts.insert(attempts.end(), options_.fallback_chain.begin(),
                  options_.fallback_chain.end());

  SummaryResult result;
  SummaryAlgorithm algorithm_used = options_.algorithm;
  bool solved = false;
  Status last_error = Status::OK();

  for (size_t attempt = 0; attempt < attempts.size(); ++attempt) {
    const bool final_fallback = attempt > 0 && attempt + 1 == attempts.size();
    const ExecutionBudget attempt_budget =
        final_fallback ? budget.CancellationOnly() : budget;
    std::unique_ptr<Summarizer> solver =
        MakeSolver(attempts[attempt], options_.seed + attempt);
    obs::TraceSpan attempt_span(obs::Phase::kSolveAttempt);
    auto attempt_result =
        solver->Summarize(item_graph.graph, effective_k, attempt_budget);
    if (attempt_result.ok()) {
      result = std::move(*attempt_result);
      algorithm_used = attempts[attempt];
      solved = true;
      if (result.approximate && attempt + 1 < attempts.size()) {
        // A budget-tripped incumbent with fallbacks still in the chain:
        // keep it as the answer of record but let a later attempt replace
        // it with a complete solution.
        degraded = true;
        if (stop_reason == StatusCode::kOk) stop_reason = result.stop_reason;
        continue;
      }
      break;
    }
    last_error = attempt_result.status();
    if (last_error.code() == StatusCode::kCancelled ||
        last_error.code() == StatusCode::kInvalidArgument) {
      return last_error;  // fallbacks never absorb these
    }
    degraded = true;
    if (stop_reason == StatusCode::kOk) stop_reason = last_error.code();
  }
  if (!solved) return last_error;
  if (result.approximate) {
    degraded = true;
    if (stop_reason == StatusCode::kOk) stop_reason = result.stop_reason;
  }

  ItemSummary summary;
  summary.cost = result.cost;
  summary.prefix_costs = std::move(result.prefix_costs);
  summary.solver_seconds = result.seconds;
  summary.epsilon = epsilon;
  summary.degraded = degraded;
  summary.algorithm_used = algorithm_used;
  summary.stop_reason = stop_reason;
  summary.num_pairs = item_graph.occurrences.size();
  // Any finding still in the report passed the error gates above, so all
  // that is left to surface are warnings.
  for (const ValidationFinding& finding : strict_report.findings()) {
    summary.validation_warnings.push_back(finding.ToString());
  }
  summary.num_candidates =
      static_cast<size_t>(item_graph.graph.num_candidates());
  summary.num_edges = item_graph.graph.num_edges();

  summary.entries.reserve(result.selected.size());
  for (int candidate : result.selected) {
    SummaryEntry entry;
    if (options_.granularity == SummaryGranularity::kPairs) {
      const PairOccurrence& occ =
          item_graph.occurrences[static_cast<size_t>(candidate)];
      entry.pair = occ.pair;
      entry.review_index = occ.review_index;
      entry.sentence_index = occ.sentence_index;
      entry.display =
          StrFormat("%s = %+.2f", ontology_->name(occ.pair.concept_id).c_str(),
                    occ.pair.sentiment);
    } else {
      auto [review_index, sentence_index] =
          item_graph.group_origin[static_cast<size_t>(candidate)];
      entry.review_index = review_index;
      entry.sentence_index = sentence_index;
      const Review& review =
          item.reviews[static_cast<size_t>(review_index)];
      const int first = item_graph.group_begin[static_cast<size_t>(candidate)];
      if (first < item_graph.group_begin[static_cast<size_t>(candidate) + 1]) {
        entry.pair = item_graph.occurrences[static_cast<size_t>(first)].pair;
      }
      if (options_.granularity == SummaryGranularity::kSentences) {
        entry.display =
            review.sentences[static_cast<size_t>(sentence_index)].text;
      } else {
        entry.display = StrFormat(
            "review #%d: %s%s", review_index,
            review.sentences.empty() ? ""
                                     : review.sentences[0].text.c_str(),
            review.sentences.size() > 1 ? " ..." : "");
      }
    }
    summary.entries.push_back(std::move(entry));
  }
  summary.budget_spent_ms = total_watch.ElapsedMillis();
  if (options_.collect_stats) {
    summary.stats = obs::SolverStats::FromTrace(trace);
  }
  SummariesCounter()->Increment();
  SolveMsHistogram()->Observe(summary.budget_spent_ms);
  return summary;
}

}  // namespace osrs
