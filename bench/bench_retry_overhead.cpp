// Fault-injection overhead benchmark: what the failpoint sites and the
// batch retry machinery cost when nothing is injected — the production
// steady state. Three measurements:
//
//   1. ns per OSRS_FAILPOINT evaluation, disarmed (the one-relaxed-load
//      fast path) and armed-but-quiet (prob(0): mutex + trigger, never
//      fires) — the worst case a site can pay without injecting.
//   2. Site evaluations per no-fault batch (counted by arming every
//      production site with prob(0), which counts hits without firing),
//      combined with (1) into an estimated steady-state overhead percent.
//   3. Batch wall clock with RetryPolicy disabled vs. max_retries=3 on a
//      fault-free run — the retry loop never triggers, so the ratio
//      isolates its bookkeeping cost.
//
// The acceptance bar is overhead < 1%.
//
// Usage: bench_retry_overhead [--smoke] [--out=BENCH_retry.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "api/batch_summarizer.h"
#include "api/review_summarizer.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/model.h"
#include "fault/failpoint.h"
#include "ontology/cellphone_hierarchy.h"
#include "ontology/ontology.h"

namespace osrs::bench {
namespace {

constexpr const char* kBatchSites[] = {
    "osrs.coverage.alloc",
    "osrs.solver.step",
    "osrs.lp.pivot",
};

Item RandomItem(const Ontology& onto, Rng& rng, int index,
                int num_sentences) {
  Item item;
  item.id = "bench" + std::to_string(index);
  Review review;
  for (int s = 0; s < num_sentences; ++s) {
    Sentence sentence;
    sentence.text = item.id + "-s" + std::to_string(s);
    ConceptId c = static_cast<ConceptId>(
        1 + rng.NextUint64(onto.num_concepts() - 1));
    sentence.pairs.push_back(
        {c, std::clamp(rng.NextGaussian(0.0, 0.6), -1.0, 1.0)});
    review.sentences.push_back(std::move(sentence));
  }
  item.reviews.push_back(std::move(review));
  return item;
}

/// ns per OSRS_FAILPOINT evaluation over `iters` calls of one site.
double MeasureSiteNs(int64_t iters) {
  Stopwatch watch;
  for (int64_t i = 0; i < iters; ++i) {
    Status status = OSRS_FAILPOINT("osrs.bench.site");
    if (!status.ok()) std::abort();  // never: disarmed or prob(0)
  }
  return static_cast<double>(watch.ElapsedNanos()) /
         static_cast<double>(iters);
}

/// Median batch wall-clock ms over `reps` runs.
double MeasureBatchMs(const BatchSummarizer& batch,
                      const std::vector<Item>& items, int k, int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    std::vector<BatchEntry> entries = batch.SummarizeAll(items, k);
    times.push_back(static_cast<double>(watch.ElapsedNanos()) * 1e-6);
    for (const BatchEntry& entry : entries) {
      if (!entry.status.ok()) {
        std::fprintf(stderr, "bench_retry_overhead: unexpected failure: %s\n",
                     entry.status.ToString().c_str());
        std::exit(2);
      }
    }
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace
}  // namespace osrs::bench

int main(int argc, char** argv) {
  using namespace osrs;
  using namespace osrs::bench;

  bool smoke = false;
  std::string out_path = "BENCH_retry.json";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      std::fprintf(stderr,
                   "usage: bench_retry_overhead [--smoke] [--out=path]\n");
      return 2;
    }
  }

  const int num_items = smoke ? 8 : 64;
  const int sentences_per_item = smoke ? 20 : 60;
  const int batch_reps = smoke ? 5 : 15;
  const int64_t site_iters = smoke ? 2'000'000 : 20'000'000;

  Ontology onto = BuildCellPhoneHierarchy();
  Rng rng(99);
  std::vector<Item> items;
  for (int i = 0; i < num_items; ++i) {
    items.push_back(RandomItem(onto, rng, i, sentences_per_item));
  }

  fault::FailpointRegistry& registry = fault::FailpointRegistry::Global();
  registry.DisarmAll();

  // 1. Site micro-cost, disarmed then armed-but-quiet.
  double disarmed_ns = MeasureSiteNs(site_iters);
  fault::FailpointSpec quiet;
  quiet.trigger = fault::FailTrigger::kProbability;
  quiet.probability = 0.0;
  registry.Get("osrs.bench.site")->Arm(quiet);
  double armed_quiet_ns = MeasureSiteNs(site_iters);
  registry.DisarmAll();

  // 2. Site evaluations per no-fault batch: prob(0) counts hits without
  //    ever firing.
  BatchSummarizerOptions options;
  options.num_threads = 1;
  BatchSummarizer batch(&onto, options);
  for (const char* site : kBatchSites) registry.Get(site)->Arm(quiet);
  (void)batch.SummarizeAll(items, 5);
  int64_t hits_per_batch = 0;
  for (const char* site : kBatchSites) {
    hits_per_batch += registry.Get(site)->hits();
  }
  registry.DisarmAll();

  // 3. Batch wall clock: retries disabled vs. an armed-but-never-needed
  //    RetryPolicy on the same fault-free workload.
  double batch_ms = MeasureBatchMs(batch, items, 5, batch_reps);
  BatchSummarizerOptions retry_options = options;
  retry_options.retry_policy.max_retries = 3;
  BatchSummarizer retry_batch(&onto, retry_options);
  double batch_retry_ms = MeasureBatchMs(retry_batch, items, 5, batch_reps);

  // Worst-case steady-state estimate: every evaluation at the armed-quiet
  // (mutex) price, against the measured batch wall clock.
  double site_overhead_percent =
      batch_ms > 0.0 ? 100.0 * (static_cast<double>(hits_per_batch) *
                                armed_quiet_ns * 1e-6) /
                           batch_ms
                     : 0.0;
  double retry_overhead_percent =
      batch_ms > 0.0 ? 100.0 * (batch_retry_ms - batch_ms) / batch_ms : 0.0;
  // The <1% bar is a steady-state contract at full batch scale: the smoke
  // batch is too small to amortize the fixed per-item site evaluations, so
  // there the percentage is printed as informational only.
  bool under_bar = site_overhead_percent < 1.0;
  bool gate = !smoke;

  std::printf("bench_retry_overhead (%s)\n", smoke ? "smoke" : "full");
  std::printf("  disarmed site:     %7.3f ns/eval\n", disarmed_ns);
  std::printf("  armed quiet site:  %7.3f ns/eval\n", armed_quiet_ns);
  std::printf("  site evals/batch:  %lld (%d items)\n",
              static_cast<long long>(hits_per_batch), num_items);
  std::printf("  batch:             %8.3f ms median\n", batch_ms);
  std::printf("  batch + retry=3:   %8.3f ms median (%+.2f%%)\n",
              batch_retry_ms, retry_overhead_percent);
  std::printf("  est. site overhead: %.4f%% of batch (< 1%%: %s%s)\n",
              site_overhead_percent, under_bar ? "yes" : "NO",
              gate ? "" : ", informational at smoke scale");

  BenchJsonWriter writer("retry_overhead");
  writer.Bool("smoke", smoke);
  writer.Int("num_items", num_items);
  writer.Raw("disarmed_ns_per_eval", StrFormat("%.4f", disarmed_ns));
  writer.Raw("armed_quiet_ns_per_eval", StrFormat("%.4f", armed_quiet_ns));
  writer.Int("site_evals_per_batch", hits_per_batch);
  writer.Raw("batch_ms", StrFormat("%.4f", batch_ms));
  writer.Raw("batch_retry3_ms", StrFormat("%.4f", batch_retry_ms));
  writer.Raw("retry_overhead_percent",
             StrFormat("%.4f", retry_overhead_percent));
  writer.Raw("site_overhead_percent",
             StrFormat("%.4f", site_overhead_percent));
  writer.Bool("under_one_percent", under_bar);
  if (!writer.WriteFile(out_path, "bench_retry_overhead")) return 2;
  return (under_bar || !gate) ? 0 : 1;
}
