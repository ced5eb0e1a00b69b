#include "harness/util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(*out);
}

bool ParseInt(const std::string& text, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0';
}

}  // namespace

bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "expected --name value, got '" + flag + "'";
      return false;
    }
    std::string name = flag.substr(2);
    std::string value = argv[++i];
    double number = 0.0;
    int64_t integer = 0;
    bool ok = true;
    if (name == "workload") {
      config->workload = value;
    } else if (name == "work-dir") {
      config->work_dir = value;
    } else if (name == "ladder") {
      config->ladder_rps.clear();
      std::stringstream stream(value);
      std::string part;
      while (ok && std::getline(stream, part, ',')) {
        ok = ParseDouble(part, &number) && number > 0.0;
        config->ladder_rps.push_back(number);
      }
      ok = ok && !config->ladder_rps.empty();
    } else if (name == "seed") {
      ok = ParseInt(value, &integer) && integer >= 0;
      config->seed = static_cast<uint64_t>(integer);
    } else if (name == "trace") {
      ok = ParseInt(value, &integer) && (integer == 0 || integer == 1);
      config->trace = integer == 1;
    } else if (name == "seconds" || name == "scale") {
      ok = ParseDouble(value, &number) && number > 0.0;
      if (name == "seconds") config->seconds = number;
      if (name == "scale") config->scale = number;
    } else if (name == "setup-reps" || name == "corpus-seed" ||
               name == "generator-threads" || name == "server-workers") {
      ok = ParseInt(value, &integer) && integer > 0 && integer < (1 << 30);
      int v = static_cast<int>(integer);
      if (name == "setup-reps") config->setup_reps = v;
      if (name == "corpus-seed") config->corpus_seed = v;
      if (name == "generator-threads") config->generator_threads = v;
      if (name == "server-workers") config->server_workers = v;
    } else {
      *error = "unknown flag --" + name;
      return false;
    }
    if (!ok) {
      *error = "bad value '" + value + "' for --" + name;
      return false;
    }
  }
  if (config->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double MetricSet::Get(const std::string& name, double fallback) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return fallback;
}

void Ledger::Declare(const std::string& layer, const std::string& parent,
                     const std::string& count_unit) {
  rows_.push_back({layer, parent, count_unit});
}

const Ledger::Row* Ledger::Find(const std::string& layer) const {
  for (const Row& row : rows_) {
    if (row.layer == layer) return &row;
  }
  return nullptr;
}

Ledger::Row& Ledger::Mutable(const std::string& layer) {
  for (Row& row : rows_) {
    if (row.layer == layer) return row;
  }
  std::fprintf(stderr, "ledger: undeclared layer %s\n", layer.c_str());
  std::abort();
}

void Ledger::AddNanos(const std::string& layer, int64_t nanos) {
  Mutable(layer).nanos += nanos;
}

void Ledger::AddCount(const std::string& layer, double count) {
  Mutable(layer).count += count;
}

double Ledger::Millis(const std::string& layer) const {
  const Row* row = Find(layer);
  return row == nullptr ? 0.0 : static_cast<double>(row->nanos) * 1e-6;
}

double Ledger::SelfMillis(const std::string& layer) const {
  double self = Millis(layer);
  for (const Row& row : rows_) {
    if (row.parent == layer) self -= static_cast<double>(row.nanos) * 1e-6;
  }
  return self;
}

std::string Ledger::Render(double scale) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "  %-24s %12s %8s %12s %14s\n",
                "layer", "ms", "share", "self_ms", "count");
  out += line;
  double root_ms = Millis(root());
  for (const Row& row : rows_) {
    int depth = 0;
    for (const Row* up = &row; !up->parent.empty(); up = Find(up->parent)) {
      ++depth;
    }
    std::string label = std::string(static_cast<size_t>(depth) * 2, ' ') +
                        row.layer;
    double ms = Millis(row.layer);
    std::snprintf(line, sizeof(line), "  %-24s %12.3f %7.2f%% %12.3f %14.0f %s\n",
                  label.c_str(), ms * scale,
                  root_ms > 0.0 ? 100.0 * ms / root_ms : 0.0,
                  SelfMillis(row.layer) * scale, row.count * scale,
                  row.count_unit.c_str());
    out += line;
  }
  return out;
}

void RunResult::Fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double position = q * static_cast<double>(samples.size() - 1);
  size_t lower = static_cast<size_t>(std::floor(position));
  size_t upper = std::min(lower + 1, samples.size() - 1);
  double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
