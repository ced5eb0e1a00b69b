#ifndef PERFBENCH_HARNESS_UTIL_H_
#define PERFBENCH_HARNESS_UTIL_H_

// Shared pieces of the end-to-end benchmark harness: the run configuration,
// the metric sink, the per-layer ledger, and small measurement helpers.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One run: the four flags every run takes (workload, seed, seconds, trace)
/// plus what differs between workloads or must be recorded with them
/// (corpus, set-up repetitions, rate ladder, thread counts), which run.py
/// passes from workloads.json. The rest of a workload's shape is constants
/// in its source file.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set-up is repeated this many times; setup_s is the median.
  int setup_reps = 3;
  /// Corpus scale (datagen's 1.0 = Table 1 size) and generator seed: the
  /// corpus is fixed per workload, the run seed reorders or redraws the
  /// work done on it.
  double scale = 1.0;
  int corpus_seed = 42;

  // serve_mixed only.
  int generator_threads = 3;  // the last one issues every write
  int server_workers = 1;
  std::vector<double> ladder_rps;  // absolute offered rates, base first

  /// Scratch directory inside the checkout (state dirs, result files).
  std::string work_dir = ".bench_build/run";
};

/// Parses `--name value` pairs; returns false (with a message) on error.
bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* error);

/// Named metrics in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  /// Value of `name`, or `fallback` when absent.
  double Get(const std::string& name, double fallback = 0.0) const;

 private:
  std::vector<Metric> metrics_;
};

/// Per-layer time ledger: one row per layer with its parent, total time,
/// self time (total minus the children's totals) and a count of the work
/// the layer did, in `count_unit`. Rows are declared up front in display
/// order; the first row is the root.
class Ledger {
 public:
  void Declare(const std::string& layer, const std::string& parent,
               const std::string& count_unit);
  void AddNanos(const std::string& layer, int64_t nanos);
  void AddCount(const std::string& layer, double count);
  double Millis(const std::string& layer) const;
  double SelfMillis(const std::string& layer) const;
  /// Rendered table: layer, ms, share of the root, self ms, count; times
  /// and counts multiplied by `scale`.
  std::string Render(double scale = 1.0) const;
  const std::string& root() const { return rows_.front().layer; }

 private:
  struct Row {
    std::string layer;
    std::string parent;
    std::string count_unit;
    int64_t nanos = 0;
    double count = 0.0;
  };
  Row& Mutable(const std::string& layer);
  const Row* Find(const std::string& layer) const;
  std::vector<Row> rows_;
};

/// Everything one workload run hands back to main.
struct RunResult {
  MetricSet end_to_end;  // untraced run
  MetricSet per_layer;   // traced run
  std::string ledger_text;
  int64_t attempted = 0;
  int64_t failed = 0;      // errors, shed/rejected, and mismatches
  int64_t mismatches = 0;  // correctness-check failures
  std::vector<std::string> errors;  // first few failures, for the report
  std::vector<std::string> notes;   // extra report lines

  void Fail(const std::string& message);
};

/// Linear-interpolated quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Monotonic nanoseconds.
int64_t NowNanos();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_UTIL_H_
