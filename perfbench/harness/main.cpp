// perfbench_harness: one end-to-end benchmark run. Normally started by
// perfbench/run.py, which builds it and passes the workload's fixed shape
// from perfbench/workloads.json:
//
//   perfbench_harness --workload ingest_doctor --seed 1 --seconds 10
//       --trace 0 [--scale 1.0 --setup-reps 3 ...]
//
// Prints a header, every metric by name with its unit, the per-layer
// ledger (traced runs), and as its last stdout line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any output fails its correctness check.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/strings.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

using osrs::StrFormat;

/// Every per-layer metric, with its unit. A layer a workload does not
/// exercise reports 0 (e.g. text.* on serve_mixed, serve.* on the ingest
/// workloads); BENCHMARK.json's per_layer list must equal this one.
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kPerLayer[] = {
    {"datagen.generate_ms", "ms"},
    {"text.split_ms", "ms"},
    {"text.tokenize_ms", "ms"},
    {"text.sentences", "count"},
    {"text.tokens", "count"},
    {"extraction.match_ms", "ms"},
    {"extraction.mentions", "count"},
    {"sentiment.score_ms", "ms"},
    {"sentiment.scored_sentences", "count"},
    {"api.annotate_ms", "ms"},
    {"api.summarize_ms", "ms"},
    {"api.annotate_share", "ratio"},
    {"core.collect_pairs_ms", "ms"},
    {"core.pairs", "count"},
    {"coverage.build_ms", "ms"},
    {"coverage.max_item_build_ms", "ms"},
    {"coverage.edges", "count"},
    {"coverage.candidates", "count"},
    {"coverage.graph_mb", "MB"},
    {"coverage.edges_per_pair", "ratio"},
    {"solver.greedy_ms", "ms"},
    {"solver.work", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.solves_per_read", "ratio"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"serve.stale_hits", "count"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.degraded_share", "ratio"},
    {"serve.generator_lag_ms_p99", "ms"},
    {"serve.max_rps_under_slo", "req/s"},
    {"store.update_ms_p50", "ms"},
    {"store.recover_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr const char* kEndToEnd[] = {
    "setup_s",     "peak_rss_mb",  "reviews_per_s", "read_ms_p50",
    "read_ms_p99", "write_ms_p50", "write_ms_p99",
};

std::string Header(const RunConfig& config, const std::string& source_id) {
  bool serve = config.workload == "serve_mixed";
  return StrFormat(
      "{\"nproc\":%ld,\"build_type\":\"%s\",\"source\":\"%s\","
      "\"simd_backend\":\"%s\",\"compiler\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%.6g,\"trace\":%d,"
      "\"generator_threads\":%d,\"server_workers\":%d}",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      osrs::JsonEscape(source_id).c_str(),
      osrs::simd::BackendName(osrs::simd::ActiveBackend()),
      osrs::JsonEscape(PERFBENCH_COMPILER).c_str(), config.workload.c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0, serve ? config.generator_threads : 1,
      serve ? config.server_workers : 0);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str());
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // whether a multi-MB coverage graph lands in fresh pages or in a reused
  // heap depended on allocation history: peak RSS then moved by tens of MB
  // between runs of identical work.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  RunConfig config;
  std::string error;
  std::string source_id = "unknown";
  // --source-id is informational (run.py passes the tree's identity); strip
  // it before the strict parser sees the argument list.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--source-id" && i + 1 < argc) {
      source_id = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!ParseArgs(static_cast<int>(args.size()), args.data(), &config,
                 &error)) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.c_str());
    return 2;
  }
  RunResult result;
  if (config.workload == "ingest_doctor" ||
      config.workload == "ingest_phone") {
    result = RunIngest(config);
  } else if (config.workload == "serve_mixed") {
    result = RunServe(config);
  } else {
    std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }

  std::vector<Metric> emitted;
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emitted.push_back(
          {spec.name, result.per_layer.Get(spec.name, 0.0), spec.unit});
    }
  } else {
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const Metric& metric : result.end_to_end.all()) {
        if (metric.name == name) {
          emitted.push_back(metric);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "perfbench_harness: metric %s missing\n", name);
        return 2;
      }
    }
  }

  std::string header = Header(config, source_id);
  std::printf("header %s\n", header.c_str());
  for (const std::string& note : result.notes) {
    std::printf("note   %s\n", note.c_str());
  }
  for (const Metric& metric : emitted) {
    std::printf("metric %-28s %16.6f %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  double failed_share =
      result.attempted > 0
          ? static_cast<double>(result.failed) /
                static_cast<double>(result.attempted)
          : 1.0;
  std::printf("metric %-28s %16.6f %s\n", "failed_share", failed_share,
              "ratio");
  if (!result.ledger_text.empty()) std::printf("%s", result.ledger_text.c_str());
  for (const std::string& message : result.errors) {
    std::printf("error  %s\n", message.c_str());
  }

  bool correct = result.mismatches == 0 && result.attempted > 0;
  std::string metrics_json = MetricsJson(emitted);
  std::error_code ec;
  std::filesystem::path results_dir =
      std::filesystem::path(config.work_dir) / "results";
  std::filesystem::create_directories(results_dir, ec);
  std::ofstream file(results_dir /
                     StrFormat("%s-seed%llu-trace%d.json",
                               config.workload.c_str(),
                               static_cast<unsigned long long>(config.seed),
                               config.trace ? 1 : 0));
  file << "{\"header\":" << header << ",\"correct\":"
       << (correct ? "true" : "false") << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"mismatches\":"
       << result.mismatches << ",\"metrics\":" << metrics_json
       << ",\"ledger\":\"" << osrs::JsonEscape(result.ledger_text) << "\"}\n";

  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
