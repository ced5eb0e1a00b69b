// Tests of the runtime telemetry layer (src/obs): metric primitives,
// trace semantics, SolverStats rendering, and the facade/batch plumbing.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch_summarizer.h"
#include "api/review_summarizer.h"
#include "common/execution_budget.h"
#include "common/rng.h"
#include "core/distance.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/request_trace.h"
#include "obs/solver_stats.h"
#include "obs/trace.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/snomed_like.h"
#include "solver/greedy.h"

namespace osrs {
namespace {

/// Restores the registry's enabled flag (tests flip it on).
class ScopedRegistryEnable {
 public:
  ScopedRegistryEnable() {
    obs::MetricsRegistry::Global().SetEnabled(true);
  }
  ~ScopedRegistryEnable() {
    obs::MetricsRegistry::Global().SetEnabled(false);
  }
};

/// Random instance over the synthetic ontology (same recipe as
/// solver_test) for the greedy determinism checks.
struct Instance {
  Ontology ontology;
  std::vector<ConceptSentimentPair> pairs;
};

Instance MakeInstance(uint64_t seed, int num_pairs) {
  SnomedLikeOptions options;
  options.num_concepts = 60;
  options.max_depth = 5;
  options.seed = seed;
  Instance instance;
  instance.ontology = BuildSnomedLikeOntology(options);
  Rng rng(seed * 77 + 1);
  for (int i = 0; i < num_pairs; ++i) {
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(instance.ontology.num_concepts() - 1));
    double s = rng.NextBernoulli(0.6) ? 0.6 : -0.4;
    instance.pairs.push_back({c, s});
  }
  return instance;
}

Item SmallItem(const Ontology& onto) {
  ConceptId screen = onto.FindByName("screen");
  ConceptId battery = onto.FindByName("battery");
  ConceptId price = onto.FindByName("price");
  Item item;
  item.id = "phone-x";
  Review r1;
  r1.sentences.push_back({"screen is great", {{screen, 0.75}}});
  r1.sentences.push_back({"battery is awful", {{battery, -0.9}}});
  Review r2;
  r2.sentences.push_back({"price is decent", {{price, 0.35}}});
  r2.sentences.push_back({"screen is nice", {{screen, 0.5}}});
  item.reviews = {r1, r2};
  return item;
}

// ---------------------------------------------------------------- Counter --

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  ScopedRegistryEnable enable;
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.test.concurrent");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), int64_t{kThreads} * kPerThread);
}

TEST(CounterTest, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry::Global().SetEnabled(false);
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.test.disabled");
  counter->Reset();
  counter->Add(41);
  counter->Increment();
  EXPECT_EQ(counter->value(), 0);
}

TEST(CounterTest, RegistryInternsHandlesByName) {
  obs::Counter* a =
      obs::MetricsRegistry::Global().GetCounter("osrs.test.interned");
  obs::Counter* b =
      obs::MetricsRegistry::Global().GetCounter("osrs.test.interned");
  EXPECT_EQ(a, b);
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, BucketBoundariesInclusiveExclusive) {
  // Bucket i covers [bounds[i-1], bounds[i]): inclusive lower edge,
  // exclusive upper edge; bucket 0 is (-inf, 1); overflow is [4, +inf).
  obs::HistogramSnapshot h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.BucketOf(0.0), 0u);
  EXPECT_EQ(h.BucketOf(0.999), 0u);
  EXPECT_EQ(h.BucketOf(1.0), 1u);  // == bound: lower edge, next bucket
  EXPECT_EQ(h.BucketOf(1.999), 1u);
  EXPECT_EQ(h.BucketOf(2.0), 2u);
  EXPECT_EQ(h.BucketOf(3.999), 2u);
  EXPECT_EQ(h.BucketOf(4.0), 3u);  // == last bound: overflow bucket
  EXPECT_EQ(h.BucketOf(1e18), 3u);

  h.Observe(1.0);
  h.Observe(1.5);
  h.Observe(4.0);
  EXPECT_EQ(h.counts[1], 2);
  EXPECT_EQ(h.counts[3], 1);
  EXPECT_EQ(h.total_count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 6.5);
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  obs::HistogramSnapshot h({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty histogram

  // 10 observations spread 4 / 4 / 2 across the first three buckets.
  for (int i = 0; i < 4; ++i) h.Observe(0.5);
  for (int i = 0; i < 4; ++i) h.Observe(1.5);
  for (int i = 0; i < 2; ++i) h.Observe(3.0);

  // rank 5 lands 1 observation into bucket [1, 2): 1 + (5-4)/4 * (2-1).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.25);
  // rank 9 lands 1 observation into bucket [2, 4): 2 + (9-8)/2 * (4-2).
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 3.0);
  // Extremes clamp to the bucket edges rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));  // q clamps to [0,1]
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

TEST(HistogramTest, QuantileInOverflowBucketReturnsLastBound) {
  obs::HistogramSnapshot h({1.0, 2.0, 4.0});
  h.Observe(100.0);
  h.Observe(200.0);
  // The overflow bucket has no upper edge; the last finite bound is the
  // most honest answer available.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 4.0);
}

TEST(HistogramTest, QuantileWithSingleObservationHitsItsBucket) {
  obs::HistogramSnapshot h({1.0, 2.0, 4.0});
  h.Observe(1.5);
  // One sample: every quantile interpolates inside its bucket [1, 2).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1.99);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(HistogramTest, ThreadSafeObserveMatchesSnapshot) {
  ScopedRegistryEnable enable;
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "osrs.test.histogram", {1.0, 10.0});
  histogram->Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram]() {
      for (int i = 0; i < kPerThread; ++i) histogram->Observe(5.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  obs::HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.total_count, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(snapshot.counts[1], int64_t{kThreads} * kPerThread);
}

// ------------------------------------------------------------------ Trace --

TEST(TraceTest, SpansRecordIntoInstalledTrace) {
  obs::SolveTrace trace;
  {
    obs::Tracer::Scope scope(&trace);
    obs::TraceSpan outer(obs::Phase::kGreedyIterations);
    {
      obs::TraceSpan inner(obs::Phase::kHeapInit);
      obs::TraceStat(obs::Stat::kHeapPops, 3);
    }
  }
  EXPECT_EQ(trace.phase_calls(obs::Phase::kGreedyIterations), 1);
  EXPECT_EQ(trace.phase_calls(obs::Phase::kHeapInit), 1);
  EXPECT_GE(trace.phase_nanos(obs::Phase::kHeapInit), 0);
  EXPECT_EQ(trace.stat(obs::Stat::kHeapPops), 3);
  EXPECT_EQ(trace.open_spans(), 0);
  EXPECT_EQ(trace.max_depth(), 2);
  EXPECT_FALSE(trace.empty());
  trace.Reset();
  EXPECT_TRUE(trace.empty());
}

TEST(TraceTest, NoInstalledTraceRecordsNothing) {
  // Spans and stats with no trace installed must be harmless no-ops.
  obs::TraceSpan span(obs::Phase::kLpRelaxation);
  obs::TraceStat(obs::Stat::kSimplexPivots, 5);
  SUCCEED();
}

TEST(TraceTest, NestingBalancedOnEarlyBudgetReturn) {
  Instance inst = MakeInstance(11, 120);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);

  obs::SolveTrace trace;
  obs::Tracer::Scope scope(&trace);
  ExecutionBudget budget;
  budget.SetMaxWork(1);  // trips during greedy selection
  GreedySummarizer greedy;
  auto result = greedy.Summarize(graph, 10, budget);
  // Whether the budget surfaced as an error or an approximate incumbent,
  // every span opened on the early path must have closed again.
  EXPECT_EQ(trace.open_spans(), 0);
  EXPECT_GE(trace.max_depth(), 1);
  (void)result;
}

// ------------------------------------------------------------ SolverStats --

TEST(SolverStatsTest, FromTraceKeepsOnlyNonZero) {
  obs::SolveTrace trace;
  trace.RecordPhase(obs::Phase::kHeapInit, 2'000'000);
  trace.AddStat(obs::Stat::kHeapPops, 7);
  obs::SolverStats stats = obs::SolverStats::FromTrace(trace);
  ASSERT_EQ(stats.phases.size(), 1u);
  EXPECT_EQ(stats.phases[0].name, "heap_init");
  EXPECT_DOUBLE_EQ(stats.phases[0].millis, 2.0);
  EXPECT_EQ(stats.phases[0].calls, 1);
  ASSERT_EQ(stats.counters.size(), 1u);
  EXPECT_EQ(stats.counter("heap_pops"), 7);
  EXPECT_EQ(stats.counter("missing"), 0);
}

TEST(SolverStatsTest, MergeFromSumsByName) {
  obs::SolverStats a;
  a.phases.push_back({"heap_init", 1.5, 1});
  a.counters.push_back({"heap_pops", 4});
  obs::SolverStats b;
  b.phases.push_back({"heap_init", 0.5, 2});
  b.phases.push_back({"lp_relaxation", 3.0, 1});
  b.counters.push_back({"simplex_pivots", 9});
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.phase_millis("heap_init"), 2.0);
  EXPECT_DOUBLE_EQ(a.phase_millis("lp_relaxation"), 3.0);
  EXPECT_EQ(a.counter("heap_pops"), 4);
  EXPECT_EQ(a.counter("simplex_pivots"), 9);
  std::string json = a.ToJson();
  EXPECT_NE(json.find("\"heap_init\""), std::string::npos);
  EXPECT_NE(json.find("\"simplex_pivots\":9"), std::string::npos);
}

// ----------------------------------------------- Determinism (greedy runs) --

TEST(TraceTest, GreedyDistanceEvaluationsDeterministicAcrossRuns) {
  Instance inst = MakeInstance(5, 80);
  PairDistance dist(&inst.ontology, 0.5);
  CoverageGraph graph = CoverageGraph::BuildForPairs(dist, inst.pairs);
  GreedySummarizer greedy;

  int64_t first_run = -1;
  for (int run = 0; run < 3; ++run) {
    obs::SolveTrace trace;
    obs::Tracer::Scope scope(&trace);
    auto result = greedy.Summarize(graph, 6);
    ASSERT_TRUE(result.ok());
    int64_t evals = trace.stat(obs::Stat::kDistanceEvaluations);
    EXPECT_GT(evals, 0);
    if (first_run < 0) {
      first_run = evals;
    } else {
      EXPECT_EQ(evals, first_run) << "run " << run;
    }
  }
}

// ----------------------------------------------------------------- Facade --

TEST(FacadeStatsTest, SummarizePopulatesStats) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizer summarizer(&onto, {});
  auto summary = summarizer.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->stats.empty());
  EXPECT_GT(summary->stats.counter("distance_evaluations"), 0);
  EXPECT_GT(summary->stats.counter("graph_edges_built"), 0);
  EXPECT_GT(summary->stats.counter("heap_pops"), 0);
  EXPECT_GE(summary->stats.phase_millis("solve_attempt"), 0.0);
  // The diagnostics object carries the stats in JSON.
  std::string json = summary->ToJson();
  const size_t diagnostics = json.find("\"diagnostics\":{");
  ASSERT_NE(diagnostics, std::string::npos) << json;
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
  // The object ends at the brace that closes the one after its key.
  size_t diagnostics_end = json.find('{', diagnostics);
  for (int depth = 0; diagnostics_end < json.size(); ++diagnostics_end) {
    depth += (json[diagnostics_end] == '{') - (json[diagnostics_end] == '}');
    if (depth == 0) break;
  }
  // The former top-level aliases are gone: each key occurs exactly once,
  // inside "diagnostics".
  for (const char* key : {"degraded", "algorithm", "stop_reason",
                          "budget_spent_ms", "solver_seconds",
                          "validation_warnings"}) {
    const std::string quoted = "\"" + std::string(key) + "\":";
    const size_t at = json.find(quoted);
    ASSERT_NE(at, std::string::npos) << key << " in " << json;
    EXPECT_EQ(json.find(quoted, at + 1), std::string::npos)
        << key << " occurs twice in " << json;
    EXPECT_GT(at, diagnostics) << key;
    EXPECT_LT(at, diagnostics_end) << key;
  }
}

TEST(FacadeStatsTest, CollectStatsOffLeavesStatsEmpty) {
  Ontology onto = BuildCellPhoneHierarchy();
  ReviewSummarizerOptions options;
  options.collect_stats = false;
  ReviewSummarizer summarizer(&onto, options);
  auto summary = summarizer.Summarize(SmallItem(onto), 2);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->stats.empty());
}

// ------------------------------------------------------------- BatchStats --

TEST(BatchStatsTest, AggregatesCountsLatenciesAndStats) {
  Ontology onto = BuildCellPhoneHierarchy();
  BatchSummarizer batch(&onto, {});
  std::vector<Item> items(3, SmallItem(onto));
  std::vector<BatchEntry> entries = batch.SummarizeAll(items, 2);
  ASSERT_EQ(entries.size(), 3u);

  BatchStats stats = AggregateBatchStats(entries);
  EXPECT_EQ(stats.total, 3);
  EXPECT_EQ(stats.ok, 3);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.total_ms.total_count, 3);
  EXPECT_EQ(stats.stats.counter("distance_evaluations"),
            3 * entries[0].summary.stats.counter("distance_evaluations"));
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"ok\":3"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\":{"), std::string::npos);

  // A failed entry is counted without contributing to the histograms.
  entries.push_back(BatchEntry{Status::Internal("boom"), ItemSummary{}});
  BatchStats with_failure = AggregateBatchStats(entries);
  EXPECT_EQ(with_failure.failed, 1);
  EXPECT_EQ(with_failure.total_ms.total_count, 3);
}

// ------------------------------------------ export (OpenMetrics) -----------

TEST(OpenMetricsTest, SanitizeMetricNameMapsDottedNames) {
  EXPECT_EQ(obs::SanitizeMetricName("osrs.serve.cache_hit"),
            "osrs_serve_cache_hit");
  EXPECT_EQ(obs::SanitizeMetricName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::SanitizeMetricName("7up"), "_7up");
  EXPECT_EQ(obs::SanitizeMetricName(""), "_");
}

TEST(OpenMetricsTest, SnapshotCapturesAllThreeKinds) {
  ScopedRegistryEnable enable;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("osrs.test.snap_hits")->Reset();
  registry.GetCounter("osrs.test.snap_hits")->Add(3);
  registry.GetGauge("osrs.test.snap_depth")->Set(7);
  registry.GetHistogram("osrs.test.snap_ms", {1.0, 10.0})->Observe(0.5);
  registry.GetHistogram("osrs.test.snap_ms", {1.0, 10.0})->Observe(100.0);

  obs::RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.enabled);
  bool counter_found = false, gauge_found = false, histogram_found = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name != "osrs.test.snap_hits") continue;
    counter_found = true;
    EXPECT_EQ(counter.value, 3);
  }
  for (const auto& gauge : snapshot.gauges) {
    if (gauge.name != "osrs.test.snap_depth") continue;
    gauge_found = true;
    EXPECT_EQ(gauge.value, 7);
  }
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name != "osrs.test.snap_ms") continue;
    histogram_found = true;
    EXPECT_EQ(histogram.histogram.total_count, 2);
  }
  EXPECT_TRUE(counter_found && gauge_found && histogram_found);
}

TEST(OpenMetricsTest, RenderedTextHasMonotoneCumulativeBuckets) {
  ScopedRegistryEnable enable;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("osrs.test.om_hits")->Reset();
  registry.GetCounter("osrs.test.om_hits")->Add(5);
  obs::Histogram* histogram =
      registry.GetHistogram("osrs.test.om_latency_ms", {1.0, 10.0, 100.0});
  histogram->Observe(0.5);
  histogram->Observe(5.0);
  histogram->Observe(50.0);
  histogram->Observe(5000.0);  // overflow bucket

  std::string text = obs::RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE osrs_test_om_hits counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("osrs_test_om_hits_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE osrs_test_om_latency_ms histogram"),
            std::string::npos);
  // Cumulative buckets: 1, 2, 3, and +Inf picks up the overflow count.
  EXPECT_NE(text.find("osrs_test_om_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("osrs_test_om_latency_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("osrs_test_om_latency_ms_bucket{le=\"100\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("osrs_test_om_latency_ms_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("osrs_test_om_latency_ms_count 4"), std::string::npos);
  EXPECT_NE(text.find("osrs_test_om_latency_ms_sum"), std::string::npos);
  // Spec terminator, exactly once, at the end.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// --------------------------------------------- request-scoped traces -------

TEST(RequestTraceTest, DeriveTraceIdIsDeterministicAndDispersed) {
  EXPECT_EQ(obs::DeriveTraceId(1), obs::DeriveTraceId(1));
  EXPECT_NE(obs::DeriveTraceId(1), obs::DeriveTraceId(2));
  EXPECT_NE(obs::DeriveTraceId(1), 0u) << "ids must not collapse to zero";
}

TEST(RequestTraceTest, NestedSpansBalanceAndRecordDepth) {
  obs::RequestTrace trace;
  size_t root = trace.BeginSpan(obs::RequestSpanKind::kServe);
  size_t inner = trace.BeginSpan(obs::RequestSpanKind::kCacheProbe);
  EXPECT_FALSE(trace.balanced()) << "open spans are unbalanced";
  trace.EndSpan(inner);
  trace.AddSpan(obs::RequestSpanKind::kQueueWait, 10, 5);
  trace.EndSpan(root);
  EXPECT_TRUE(trace.balanced());
  EXPECT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_EQ(trace.spans()[1].depth, 1);
  EXPECT_TRUE(trace.HasSpan(obs::RequestSpanKind::kQueueWait));
  EXPECT_GE(trace.SpanDurationNs(obs::RequestSpanKind::kServe), 0);

  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"trace_id\":\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"cache_probe\""), std::string::npos);
}

}  // namespace
}  // namespace osrs
