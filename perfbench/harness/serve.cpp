// serve_mixed: a persistent SummaryServer over the pre-annotated doctor
// corpus under an open-loop mix of reads and writes.
//
// Set-up generates the corpus (from the corpus seed) and the whole
// schedule (from the run seed): a ladder of absolute offered rates walked
// several times, each operation a read (Zipf-popular item, k uniform in
// [k_min, k_max], through the cache) or, with a fixed share, a write
// (UpdateItem with a version of the item carrying a few more reviews). The
// server starts on a fresh state directory with interval fsync, so
// construction includes recovery and the initial snapshot.
//
// Generator threads issue their share of the schedule at the due times;
// every operation is timed from when it was due, and the lateness of the
// generator itself is reported. After the run, outside the timed region:
//   * every OK, non-degraded read is compared with a direct
//     ReviewSummarizer::Summarize of the item version current at the
//     response's epoch, or of a version whose write began before the read
//     returned (selection and cost bit-identical);
//   * the server's accounting identities must hold;
//   * a second server recovers the state directory and must come back at
//     the final epoch.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/review_summarizer.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/model.h"
#include "coverage/coverage_graph.h"
#include "datagen/doctor_corpus.h"
#include "harness/workloads.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using osrs::Item;
using osrs::StrFormat;
using osrs::serve::ServeOutcome;

// The fixed shape of the traffic (workloads.json records the same values).
constexpr int kCycles = 20;          // walks of the rate ladder per run
constexpr double kBaseShare = 0.75;  // share of each walk at the base rate
constexpr double kWriteShare = 0.08;
constexpr double kZipfS = 1.0;       // item popularity exponent
constexpr int kMinK = 3;             // reads ask for k in [kMinK, kMaxK]
constexpr int kMaxK = 8;
// Fewer summaries than the 300 items x 6 k values a read can ask for, so
// the cache evicts.
constexpr size_t kCacheCapacity = 512;
constexpr double kDeadlineMs = 200.0;  // every read's budget
constexpr double kSloP99Ms = 5.0;      // read p99 limit per rung
// Interval fsync at most once a minute: within a run a write measures the
// journal append, not the shared disk's flush latency.
constexpr uint64_t kFsyncIntervalMs = 60000;
constexpr int kReviewsPerWrite = 3;

/// One scheduled operation.
struct Op {
  int64_t due_ns = 0;  // offset from the start of its walk of the ladder
  int phase = 0;       // ladder rung
  int cycle = 0;       // walk of the ladder
  bool write = false;
  int item = 0;
  int k = 0;        // reads
  int version = 0;  // writes: the version this write installs
};

/// What happened to one operation.
struct OpRecord {
  double lag_ms = 0.0;      // start - due
  double latency_ms = 0.0;  // end - due
  double service_ms = 0.0;  // end - start
  bool ok = false;
  std::string error;
  // reads
  ServeOutcome outcome = ServeOutcome::kFailed;
  bool degraded = false;
  uint64_t epoch = 0;
  int64_t writes_started = 0;  // writes begun before this read returned
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  std::vector<std::pair<int, int>> selection;
  double cost = 0.0;
  // traced reads that ran a solve
  double build_ms = 0.0;
  double greedy_ms = 0.0;
  int64_t key_updates = 0;
  size_t pairs = 0;
  size_t candidates = 0;
  size_t edges = 0;
  // writes
  uint64_t epoch_after = 0;
  int64_t write_seq = -1;
};

struct ServeInput {
  std::unique_ptr<osrs::Corpus> corpus;
  std::vector<Op> ops;
  std::vector<double> phase_rps;
  std::string state_dir;
  std::unique_ptr<osrs::serve::SummaryServer> server;
  double generate_ms = 0.0;
};

/// Version v > 0 of item i: its generated reviews plus kReviewsPerWrite
/// reviews borrowed from the next item, a different slice per version
/// (wrapping).
/// Every version has the same size, so a hot item does not grow without
/// bound over a run. Deterministic, so verification rebuilds any version
/// on demand; version 0 is the generated item.
Item MakeVersion(const osrs::Corpus& corpus, int item, int version) {
  Item out = corpus.items[static_cast<size_t>(item)];
  const Item& donor =
      corpus.items[(static_cast<size_t>(item) + 1) % corpus.items.size()];
  for (int r = (version - 1) * kReviewsPerWrite;
       version > 0 && r < version * kReviewsPerWrite; ++r) {
    out.reviews.push_back(
        donor.reviews[static_cast<size_t>(r) % donor.reviews.size()]);
  }
  return out;
}

osrs::serve::ServeOptions ServerOptions(const RunConfig& config,
                                        const std::string& state_dir) {
  osrs::serve::ServeOptions options;
  options.num_threads = config.server_workers;
  options.cache_capacity = kCacheCapacity;
  options.state_dir = state_dir;
  options.fsync_policy = osrs::store::FsyncPolicy::kInterval;
  options.fsync_interval_ms = kFsyncIntervalMs;
  // Size-triggered compaction off: a write measures the journal append,
  // not an occasional full snapshot of the corpus.
  options.journal_compact_threshold_bytes = 0;
  return options;
}

std::unique_ptr<ServeInput> SetUp(const RunConfig& config, int rep) {
  auto input = std::make_unique<ServeInput>();
  int64_t start = NowNanos();
  // The corpus and which items are popular come from the corpus seed; the
  // run seed draws the request stream (items, k, which operations write).
  const uint64_t corpus_seed = static_cast<uint64_t>(config.corpus_seed);
  osrs::DoctorCorpusOptions corpus_options;
  corpus_options.scale = config.scale;
  corpus_options.seed = corpus_seed;
  input->corpus = std::make_unique<osrs::Corpus>(
      osrs::GenerateDoctorCorpus(corpus_options));
  input->generate_ms = static_cast<double>(NowNanos() - start) * 1e-6;
  const int num_items = static_cast<int>(input->corpus->items.size());

  // Popularity ranks map to items through a seeded permutation, so the
  // hottest item is not simply the generator's first one.
  osrs::Rng popularity(corpus_seed * 0x9E3779B97F4A7C15ULL + 0x5e7e);
  std::vector<int> by_rank(static_cast<size_t>(num_items));
  for (int i = 0; i < num_items; ++i) by_rank[static_cast<size_t>(i)] = i;
  popularity.Shuffle(by_rank);
  osrs::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 0x5e7e);

  // The ladder, walked kCycles times: each walk spends kBaseShare of its
  // time at the base rate, then the other rungs in equal slices. Spreading
  // the base-rate windows over the run keeps one slow stretch of the host
  // from covering all of them. Due times are offsets from the walk's start.
  const size_t rungs = config.ladder_rps.size();
  const double cycle_s = config.seconds / kCycles;
  std::vector<int> versions(static_cast<size_t>(num_items), 0);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    double phase_start_s = 0.0;
    for (size_t p = 0; p < rungs; ++p) {
      double rate = config.ladder_rps[p];
      double duration_s =
          rungs == 1 ? cycle_s
          : p == 0   ? cycle_s * kBaseShare
                     : cycle_s * (1.0 - kBaseShare) /
                         static_cast<double>(rungs - 1);
      int64_t count = static_cast<int64_t>(rate * duration_s);
      for (int64_t j = 0; j < count; ++j) {
        Op op;
        op.due_ns = static_cast<int64_t>(
            (phase_start_s + static_cast<double>(j) / rate) * 1e9);
        op.phase = static_cast<int>(p);
        op.cycle = cycle;
        op.item = by_rank[rng.NextZipf(static_cast<uint64_t>(num_items),
                                       kZipfS)];
        op.write = rng.NextBernoulli(kWriteShare);
        if (op.write) {
          op.version = ++versions[static_cast<size_t>(op.item)];
        } else {
          op.k = static_cast<int>(rng.NextInt(kMinK, kMaxK));
        }
        input->ops.push_back(op);
      }
      phase_start_s += duration_s;
    }
  }
  input->phase_rps = config.ladder_rps;

  input->state_dir = StrFormat("%s/state-%d-%d", config.work_dir.c_str(),
                               static_cast<int>(getpid()), rep);
  std::error_code ec;
  std::filesystem::remove_all(input->state_dir, ec);
  std::filesystem::create_directories(input->state_dir, ec);
  input->server = std::make_unique<osrs::serve::SummaryServer>(
      &input->corpus->ontology, input->corpus->items,
      ServerOptions(config, input->state_dir));
  return input;
}

/// Barrier completion that starts the next walk of the ladder 2 ms from
/// now. Every generator finishes its operations of one walk before the next
/// walk starts, so a backlog built at the top rung drains before the next
/// base-rate window opens.
struct StartWalk {
  int64_t* start_ns;
  void operator()() noexcept { *start_ns = NowNanos() + 2000000; }
};

/// One step of a spin-wait that leaves the core's execution resources to
/// other threads: the server worker may be on the same physical core.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  for (int i = 0; i < 16; ++i) __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Issues one operation at its due time and records what happened.
void RunOp(const RunConfig& config, ServeInput& input, const Op& op,
           int64_t due, std::atomic<int64_t>& writes_started,
           OpRecord& record, int64_t* recording_ns) {
  osrs::serve::SummaryServer& server = *input.server;
  // A write's item version is built before its due time (a copy of the
  // item, tens of microseconds), so only UpdateItem itself is timed.
  Item version;
  if (op.write) version = MakeVersion(*input.corpus, op.item, op.version);
  // Sleep until shortly before the due time, then spin: the sleep's
  // wake-up jitter would otherwise land in every latency.
  for (int64_t now = NowNanos(); now < due; now = NowNanos()) {
    if (due - now > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 200000));
    } else {
      CpuRelax();
    }
  }
  int64_t start = NowNanos();
  if (op.write) {
    // Writes all run on one thread, so the epoch read right after
    // UpdateItem is the one this write produced.
    record.write_seq = writes_started.fetch_add(1);
    server.UpdateItem(std::move(version));
    record.epoch_after = server.epoch();
    record.ok = true;
  } else {
    osrs::serve::ServeRequest request;
    request.item_id = input.corpus->items[static_cast<size_t>(op.item)].id;
    request.k = op.k;
    request.deadline_ms = kDeadlineMs;
    osrs::serve::ServeResponse response = server.Serve(request);
    record.writes_started = writes_started.load();
    record.ok = response.status.ok();
    record.outcome = response.outcome;
    record.degraded = response.degraded;
    record.epoch = response.epoch;
    record.queue_ms = response.queue_ms;
    record.solve_ms = response.summary.budget_spent_ms;
    record.cost = response.summary.cost;
    if (!record.ok) record.error = response.status.ToString();
    for (const osrs::SummaryEntry& entry : response.summary.entries) {
      record.selection.emplace_back(entry.review_index, entry.sentence_index);
    }
    if (config.trace && response.outcome == ServeOutcome::kSolved) {
      int64_t t0 = NowNanos();
      const osrs::obs::SolverStats& stats = response.summary.stats;
      record.build_ms = stats.phase_millis("build_coverage_graph");
      record.greedy_ms = stats.phase_millis("heap_init") +
                         stats.phase_millis("greedy_iterations");
      record.key_updates = stats.counter("key_updates");
      record.pairs = response.summary.num_pairs;
      record.candidates = response.summary.num_candidates;
      record.edges = response.summary.num_edges;
      *recording_ns += NowNanos() - t0;
    }
  }
  int64_t end = NowNanos();
  record.lag_ms = static_cast<double>(start - due) * 1e-6;
  record.latency_ms = static_cast<double>(end - due) * 1e-6;
  record.service_ms = static_cast<double>(end - start) * 1e-6;
}

/// Runs one generator's share of the schedule (`mine`, in due order), one
/// walk of the ladder at a time.
void Generate(const RunConfig& config, ServeInput& input,
              const std::vector<size_t>& mine,
              std::barrier<StartWalk>& walks, const int64_t& walk_start_ns,
              std::atomic<int64_t>& writes_started,
              std::vector<OpRecord>& records, int64_t* recording_ns) {
  size_t next = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    walks.arrive_and_wait();
    for (; next < mine.size() && input.ops[mine[next]].cycle == cycle;
         ++next) {
      const Op& op = input.ops[mine[next]];
      RunOp(config, input, op, walk_start_ns + op.due_ns, writes_started,
            records[mine[next]], recording_ns);
    }
  }
}

bool CheckAccounting(const osrs::serve::ServerCounters& c,
                     std::string* error) {
  if (c.submitted != c.admitted + c.rejected) {
    *error = StrFormat("accounting: submitted %lld != admitted %lld + "
                       "rejected %lld",
                       static_cast<long long>(c.submitted),
                       static_cast<long long>(c.admitted),
                       static_cast<long long>(c.rejected));
    return false;
  }
  if (c.admitted != c.completed + c.shed + c.failed) {
    *error = StrFormat(
        "accounting: admitted %lld != completed %lld + shed %lld + "
        "failed %lld",
        static_cast<long long>(c.admitted),
        static_cast<long long>(c.completed), static_cast<long long>(c.shed),
        static_cast<long long>(c.failed));
    return false;
  }
  return true;
}

/// Reference summaries by (item, version, k), computed on demand.
class Reference {
 public:
  explicit Reference(const osrs::Corpus& corpus)
      : corpus_(corpus),
        summarizer_(&corpus.ontology, osrs::ReviewSummarizerOptions{}) {}

  /// True when `record` is bit-identical to a direct solve of `version`.
  bool Matches(const OpRecord& record, int item, int version, int k) {
    auto key = std::make_tuple(item, version, k);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      Item snapshot = MakeVersion(corpus_, item, version);
      osrs::Result<osrs::ItemSummary> summary =
          summarizer_.Summarize(snapshot, k);
      Expected expected;
      if (summary.ok()) {
        expected.cost = summary->cost;
        for (const osrs::SummaryEntry& entry : summary->entries) {
          expected.selection.emplace_back(entry.review_index,
                                          entry.sentence_index);
        }
      } else {
        expected.cost = -1.0;  // never equal to a served cost
      }
      it = memo_.emplace(key, std::move(expected)).first;
    }
    return it->second.cost == record.cost &&
           it->second.selection == record.selection;
  }

 private:
  struct Expected {
    std::vector<std::pair<int, int>> selection;
    double cost = 0.0;
  };
  const osrs::Corpus& corpus_;
  osrs::ReviewSummarizer summarizer_;
  std::map<std::tuple<int, int, int>, Expected> memo_;
};

struct WriteEvent {
  uint64_t epoch_after;
  int64_t seq;
  int version;
};

}  // namespace

RunResult RunServe(const RunConfig& config) {
  RunResult out;
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::unique_ptr<ServeInput> input;
  std::error_code ec;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    if (input != nullptr) {
      input.reset();
    }
    int64_t start = NowNanos();
    input = SetUp(config, rep);
    setup_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
    generate_ms.push_back(input->generate_ms);
  }
  for (int rep = 0; rep + 1 < config.setup_reps; ++rep) {
    std::filesystem::remove_all(
        StrFormat("%s/state-%d-%d", config.work_dir.c_str(),
                  static_cast<int>(getpid()), rep),
        ec);
  }
  out.end_to_end.Set("setup_s", Median(setup_s), "s");
  out.per_layer.Set("datagen.generate_ms", Median(generate_ms), "ms");

  osrs::serve::SummaryServer& server = *input->server;
  const osrs::Corpus& corpus = *input->corpus;
  if (!server.recovery_status().ok()) {
    out.Fail("recovery: " + server.recovery_status().ToString());
    ++out.mismatches;
  }

  // Warm-up outside the measurement: fills the solve-cost estimate the
  // shedding policy reads and the cache, at the starting epoch.
  {
    osrs::Rng rng(config.seed + 17);
    for (int i = 0; i < 200; ++i) {
      osrs::serve::ServeRequest request;
      request.item_id =
          corpus.items[rng.NextUint64(corpus.items.size())].id;
      request.k = static_cast<int>(rng.NextInt(kMinK, kMaxK));
      (void)server.Serve(request);
    }
  }
  const osrs::serve::ServerCounters before = server.counters();
  const osrs::serve::CacheStats cache_before = server.cache_stats();
  const uint64_t start_epoch = server.epoch();

  // The schedule: every write goes to the last generator thread, reads are
  // dealt round-robin to the others. A write that stalls on the file
  // system (ext4 commits block appends for milliseconds) then delays only
  // later writes, not the reads a shared thread would have issued next.
  std::vector<std::vector<size_t>> shares(
      static_cast<size_t>(config.generator_threads));
  const size_t readers = std::max<size_t>(shares.size() - 1, 1);
  size_t next_reader = 0;
  for (size_t j = 0; j < input->ops.size(); ++j) {
    if (input->ops[j].write) {
      shares.back().push_back(j);
    } else {
      shares[next_reader++ % readers].push_back(j);
    }
  }
  std::vector<OpRecord> records(input->ops.size());
  std::vector<int64_t> recording_ns(shares.size(), 0);
  std::atomic<int64_t> writes_started{0};
  const int64_t run_start = NowNanos();
  {
    int64_t walk_start_ns = 0;
    std::barrier<StartWalk> walks(static_cast<std::ptrdiff_t>(shares.size()),
                                  StartWalk{&walk_start_ns});
    std::vector<std::thread> generators;
    for (size_t g = 0; g < shares.size(); ++g) {
      generators.emplace_back([&, g] {
        Generate(config, *input, shares[g], walks, walk_start_ns,
                 writes_started, records, &recording_ns[g]);
      });
    }
    for (std::thread& generator : generators) generator.join();
  }
  const double run_wall_s =
      static_cast<double>(NowNanos() - run_start) * 1e-9;
  // Peak memory of set-up plus serving, before the checks below load a
  // second server and the reference summaries.
  const double peak_rss_mb = PeakRssMb();
  const osrs::serve::ServerCounters after = server.counters();
  const osrs::serve::CacheStats cache_after = server.cache_stats();
  const uint64_t final_epoch = server.epoch();

  // ---- correctness, outside the timed region ----
  std::string error;
  if (!CheckAccounting(after, &error)) {
    ++out.mismatches;
    out.Fail(error);
  }
  std::vector<std::vector<WriteEvent>> writes(corpus.items.size());
  int64_t num_writes = 0;
  for (size_t j = 0; j < input->ops.size(); ++j) {
    const Op& op = input->ops[j];
    if (!op.write) continue;
    ++num_writes;
    writes[static_cast<size_t>(op.item)].push_back(
        {records[j].epoch_after, records[j].write_seq, op.version});
  }
  for (auto& events : writes) {
    std::sort(events.begin(), events.end(),
              [](const WriteEvent& a, const WriteEvent& b) {
                return a.epoch_after < b.epoch_after;
              });
  }
  Reference reference(corpus);
  int64_t checked = 0;
  int64_t epoch_skew = 0;
  int64_t reads = 0;
  int64_t degraded_reads = 0;
  for (size_t j = 0; j < input->ops.size(); ++j) {
    const Op& op = input->ops[j];
    const OpRecord& record = records[j];
    ++out.attempted;
    if (!record.ok) {
      out.Fail(StrFormat("op %zu: %s", j, record.error.c_str()));
      continue;
    }
    if (op.write) continue;
    ++reads;
    if (record.degraded) {
      ++degraded_reads;
      continue;
    }
    // The version current at the response's epoch; a write that began
    // before the read returned may also be visible, because the server
    // swaps the item before it bumps the epoch and a queued solve reads
    // the item when it starts.
    const std::vector<WriteEvent>& events =
        writes[static_cast<size_t>(op.item)];
    int current = 0;
    for (const WriteEvent& event : events) {
      if (event.epoch_after <= record.epoch) current = event.version;
    }
    ++checked;
    if (reference.Matches(record, op.item, current, op.k)) continue;
    bool matched_newer = false;
    for (const WriteEvent& event : events) {
      if (event.epoch_after > record.epoch &&
          event.seq < record.writes_started &&
          reference.Matches(record, op.item, event.version, op.k)) {
        matched_newer = true;
        break;
      }
    }
    if (matched_newer) {
      ++epoch_skew;
      continue;
    }
    ++out.mismatches;
    out.Fail(StrFormat("op %zu: read of %s k=%d at epoch %llu differs from "
                       "a direct solve",
                       j, corpus.items[static_cast<size_t>(op.item)].id.c_str(),
                       op.k, static_cast<unsigned long long>(record.epoch)));
  }

  // Recovery: a fresh server on the same state directory must come back
  // at the final epoch (the journal holds every write of the run).
  input->server.reset();
  int64_t recover_start = NowNanos();
  auto recovered = std::make_unique<osrs::serve::SummaryServer>(
      &corpus.ontology, std::vector<Item>{},
      ServerOptions(config, input->state_dir));
  double recover_ms = static_cast<double>(NowNanos() - recover_start) * 1e-6;
  if (!recovered->recovery_status().ok() ||
      recovered->epoch() != final_epoch) {
    ++out.mismatches;
    out.Fail(StrFormat("recovery came back at epoch %llu, want %llu (%s)",
                       static_cast<unsigned long long>(recovered->epoch()),
                       static_cast<unsigned long long>(final_epoch),
                       recovered->recovery_status().ToString().c_str()));
  }
  recovered.reset();
  std::filesystem::remove_all(input->state_dir, ec);

  // ---- metrics ----
  const double base_rps = input->phase_rps.front();
  const size_t rungs = input->phase_rps.size();
  const size_t windows = rungs * kCycles;
  // Per (rung, cycle) window: read latencies and the generator's lag, in
  // due order.
  std::vector<std::vector<double>> window_read_ms(windows), window_lag_ms(windows);
  std::vector<int64_t> rung_ops(rungs, 0), rung_failed(rungs, 0);
  std::vector<double> write_ms, lag_ms;
  std::vector<double> queue_ms, solve_ms;
  double solve_total_ms = 0.0;
  // Per window: reviews of the items freshly solved, and the solve time.
  std::vector<double> window_reviews(windows, 0.0), window_solve_ms(windows, 0.0);
  for (size_t j = 0; j < input->ops.size(); ++j) {
    const Op& op = input->ops[j];
    const OpRecord& record = records[j];
    const size_t window = static_cast<size_t>(op.phase) * kCycles +
                          static_cast<size_t>(op.cycle);
    lag_ms.push_back(record.lag_ms);
    window_lag_ms[window].push_back(record.lag_ms);
    ++rung_ops[static_cast<size_t>(op.phase)];
    if (!record.ok) ++rung_failed[static_cast<size_t>(op.phase)];
    if (op.write) {
      write_ms.push_back(record.service_ms);
      continue;
    }
    window_read_ms[window].push_back(record.latency_ms);
    if (record.outcome == ServeOutcome::kSolved) {
      queue_ms.push_back(record.queue_ms);
      solve_ms.push_back(record.solve_ms);
      solve_total_ms += record.solve_ms;
      bool rewritten = false;
      for (const WriteEvent& event : writes[static_cast<size_t>(op.item)]) {
        rewritten = rewritten || event.epoch_after <= record.epoch;
      }
      window_solve_ms[window] += record.solve_ms;
      window_reviews[window] += static_cast<double>(
          corpus.items[static_cast<size_t>(op.item)].reviews.size() +
          (rewritten ? static_cast<size_t>(kReviewsPerWrite) : 0));
    }
  }

  // Per rung: read p50/p99 and lag growth per window. A rung meets the SLO
  // when its median window has read p99 within the limit and lag that does
  // not grow across the window, and <= 1% of its operations failed.
  // max_rps_under_slo is the highest rung with every lower rung passing.
  double max_rps_under_slo = 0.0;
  bool all_lower_pass = true;
  std::vector<double> base_p50, base_p99, base_reviews_per_s;
  for (size_t p = 0; p < rungs; ++p) {
    std::vector<double> p50s, p99s, growths;
    for (int c = 0; c < kCycles; ++c) {
      const size_t window = p * kCycles + static_cast<size_t>(c);
      if (p == 0 && window_solve_ms[window] > 0.0) {
        base_reviews_per_s.push_back(window_reviews[window] /
                                     (window_solve_ms[window] * 1e-3));
      }
      p50s.push_back(Quantile(window_read_ms[window], 0.5));
      p99s.push_back(Quantile(window_read_ms[window], 0.99));
      const std::vector<double>& lags = window_lag_ms[window];
      const long third = static_cast<long>(lags.size() / 3);
      growths.push_back(
          third == 0 ? 0.0
                     : Median({lags.end() - third, lags.end()}) -
                           Median({lags.begin(), lags.begin() + third}));
    }
    if (p == 0) {
      base_p50 = p50s;
      base_p99 = p99s;
    }
    double p99 = Median(p99s);
    double growth = Median(growths);
    bool pass = p99 <= kSloP99Ms && growth <= 1.0 &&
                static_cast<double>(rung_failed[p]) <=
                    0.01 * static_cast<double>(std::max<int64_t>(rung_ops[p], 1));
    all_lower_pass = all_lower_pass && pass;
    if (all_lower_pass) max_rps_under_slo = input->phase_rps[p];
    out.notes.push_back(StrFormat(
        "rung %zu: %.0f req/s, %lld ops in %d windows, window read p50 "
        "%.3f-%.3f ms, p99 %.3f-%.3f ms (median %.3f), lag growth %.3f ms, "
        "failed %lld -> %s",
        p, input->phase_rps[p], static_cast<long long>(rung_ops[p]),
        kCycles, Quantile(p50s, 0.0), Quantile(p50s, 1.0),
        Quantile(p99s, 0.0), Quantile(p99s, 1.0), p99, growth,
        static_cast<long long>(rung_failed[p]),
        pass ? "meets SLO" : "misses SLO"));
  }

  // The base rate's read latency and solve throughput are those of its
  // fastest window (at 30 s each holds ~1000 reads, so its p99 has ~10
  // beyond it): a slow stretch of the host can only add time, and the 20
  // windows are spread over the whole run, so one clean window suffices.
  MetricSet& e2e = out.end_to_end;
  e2e.Set("reviews_per_s", Quantile(base_reviews_per_s, 1.0), "reviews/s");
  e2e.Set("read_ms_p50", Quantile(base_p50, 0.0), "ms");
  e2e.Set("read_ms_p99", Quantile(base_p99, 0.0), "ms");
  // A write is the UpdateItem call itself: the writer thread's own
  // lateness behind a write that stalled in the file system is generator
  // lag (serve.generator_lag_ms_p99), not the journal path. Writes are
  // split, in due order, into consecutive groups of >= 500 and reported
  // for the fastest group, like the read windows.
  const size_t write_groups = std::max<size_t>(write_ms.size() / 500, 1);
  std::vector<double> write_p50, write_p99;
  for (size_t g = 0; g < write_groups; ++g) {
    const auto first = write_ms.begin() +
                       static_cast<long>(write_ms.size() * g / write_groups);
    const auto last = write_ms.begin() + static_cast<long>(
                                             write_ms.size() * (g + 1) /
                                             write_groups);
    write_p50.push_back(Quantile({first, last}, 0.5));
    write_p99.push_back(Quantile({first, last}, 0.99));
  }
  e2e.Set("write_ms_p50", Quantile(write_p50, 0.0), "ms");
  e2e.Set("write_ms_p99", Quantile(write_p99, 0.0), "ms");
  e2e.Set("peak_rss_mb", peak_rss_mb, "MB");

  const double read_count = static_cast<double>(std::max<int64_t>(reads, 1));
  const osrs::serve::ServerCounters delta{
      after.submitted - before.submitted, after.admitted - before.admitted,
      after.rejected - before.rejected,   after.completed - before.completed,
      after.shed - before.shed,           after.failed - before.failed,
      after.coalesced - before.coalesced, after.solves - before.solves,
      after.cache_hits - before.cache_hits,
      after.degraded - before.degraded,   after.epoch_bumps - before.epoch_bumps,
      after.watchdog_stalls - before.watchdog_stalls};
  MetricSet& m = out.per_layer;
  m.Set("serve.queue_ms_p50", Quantile(queue_ms, 0.5), "ms");
  m.Set("serve.queue_ms_p99", Quantile(queue_ms, 0.99), "ms");
  m.Set("serve.service_ms_p50", Quantile(solve_ms, 0.5), "ms");
  m.Set("serve.cache_hit_ratio", static_cast<double>(delta.cache_hits) /
                                     read_count, "ratio");
  m.Set("serve.solves_per_read",
        static_cast<double>(delta.solves) / read_count, "ratio");
  m.Set("serve.coalesced_ratio",
        static_cast<double>(delta.coalesced) / read_count, "ratio");
  m.Set("serve.evictions",
        static_cast<double>(cache_after.evictions - cache_before.evictions),
        "count");
  m.Set("serve.stale_hits",
        static_cast<double>(cache_after.stale_hits - cache_before.stale_hits),
        "count");
  m.Set("serve.rejected", static_cast<double>(delta.rejected), "count");
  m.Set("serve.shed", static_cast<double>(delta.shed), "count");
  m.Set("serve.degraded_share",
        static_cast<double>(degraded_reads) / read_count, "ratio");
  m.Set("serve.generator_lag_ms_p99", Quantile(lag_ms, 0.99), "ms");
  m.Set("serve.max_rps_under_slo", max_rps_under_slo, "req/s");
  m.Set("store.update_ms_p50", Quantile(write_ms, 0.5), "ms");
  m.Set("store.recover_ms", recover_ms, "ms");

  out.notes.push_back(StrFormat(
      "schedule %zu ops over %.2f s (%lld reads, %lld writes), base rate "
      "%.0f req/s, %d generator thread(s) + %d server worker(s)",
      input->ops.size(), run_wall_s, static_cast<long long>(reads),
      static_cast<long long>(num_writes), base_rps, config.generator_threads,
      config.server_workers));
  out.notes.push_back(StrFormat(
      "reads checked against direct solves %lld, served a version newer "
      "than their epoch %lld; epochs %llu -> %llu; counters %s",
      static_cast<long long>(checked), static_cast<long long>(epoch_skew),
      static_cast<unsigned long long>(start_epoch),
      static_cast<unsigned long long>(final_epoch), delta.ToJson().c_str()));

  if (config.trace) {
    Ledger ledger;
    ledger.Declare("serve.requests", "", "operations");
    ledger.Declare("serve.generator_lag", "serve.requests", "operations");
    ledger.Declare("serve.queue_wait", "serve.requests", "solves");
    ledger.Declare("api.summarize", "serve.requests", "solves");
    ledger.Declare("coverage.build", "api.summarize", "edges");
    ledger.Declare("solver.greedy", "api.summarize", "key updates");
    ledger.Declare("store.update", "serve.requests", "writes");
    double build_total = 0.0, greedy_total = 0.0, max_build = 0.0;
    double max_graph_mb = 0.0;
    int64_t pairs = 0, candidates = 0, edges = 0, key_updates = 0;
    auto ns = [](double ms) { return static_cast<int64_t>(ms * 1e6); };
    for (size_t j = 0; j < input->ops.size(); ++j) {
      const OpRecord& record = records[j];
      ledger.AddNanos("serve.requests", ns(record.latency_ms));
      ledger.AddNanos("serve.generator_lag", ns(record.lag_ms));
      ledger.AddCount("serve.requests", 1);
      ledger.AddCount("serve.generator_lag", 1);
      if (input->ops[j].write) {
        ledger.AddNanos("store.update", ns(record.service_ms));
        ledger.AddCount("store.update", 1);
        continue;
      }
      if (record.outcome != ServeOutcome::kSolved) continue;
      ledger.AddNanos("serve.queue_wait", ns(record.queue_ms));
      ledger.AddNanos("api.summarize", ns(record.solve_ms));
      ledger.AddNanos("coverage.build", ns(record.build_ms));
      ledger.AddNanos("solver.greedy", ns(record.greedy_ms));
      ledger.AddCount("serve.queue_wait", 1);
      ledger.AddCount("api.summarize", 1);
      ledger.AddCount("coverage.build", static_cast<double>(record.edges));
      ledger.AddCount("solver.greedy",
                      static_cast<double>(record.key_updates));
      build_total += record.build_ms;
      greedy_total += record.greedy_ms;
      max_build = std::max(max_build, record.build_ms);
      pairs += static_cast<int64_t>(record.pairs);
      candidates += static_cast<int64_t>(record.candidates);
      edges += static_cast<int64_t>(record.edges);
      key_updates += record.key_updates;
      max_graph_mb = std::max(
          max_graph_mb, static_cast<double>(osrs::CoverageGraph::EstimateBytes(
                            record.edges, record.candidates, record.pairs,
                            false)) /
                            (1024.0 * 1024.0));
    }
    m.Set("api.summarize_ms", solve_total_ms, "ms");
    m.Set("core.pairs", static_cast<double>(pairs), "count");
    m.Set("coverage.build_ms", build_total, "ms");
    m.Set("coverage.max_item_build_ms", max_build, "ms");
    m.Set("coverage.edges", static_cast<double>(edges), "count");
    m.Set("coverage.candidates", static_cast<double>(candidates), "count");
    m.Set("coverage.graph_mb", max_graph_mb, "MB");
    m.Set("coverage.edges_per_pair",
          pairs > 0 ? static_cast<double>(edges) / static_cast<double>(pairs)
                    : 0.0,
          "ratio");
    m.Set("solver.greedy_ms", greedy_total, "ms");
    m.Set("solver.work", static_cast<double>(key_updates), "count");
    int64_t recorded = 0;
    for (int64_t v : recording_ns) recorded += v;
    double recorded_ms = static_cast<double>(recorded) * 1e-6;
    double request_ms = ledger.Millis("serve.requests");
    m.Set("trace.overhead_ms", recorded_ms, "ms");
    m.Set("trace.overhead_ratio",
          request_ms > 0.0 ? recorded_ms / request_ms : 0.0, "ratio");
    out.ledger_text = StrFormat(
        "ledger (ms summed over the run's %zu operations; share of "
        "serve.requests; the text, extraction and sentiment layers do no "
        "work here):\n",
        input->ops.size());
    out.ledger_text += ledger.Render();
    out.ledger_text += StrFormat(
        "  tracing overhead: %.3f ms spent recording per-solve stats, "
        "%.4f%% of the %.3f ms of request time\n",
        recorded_ms, request_ms > 0.0 ? 100.0 * recorded_ms / request_ms : 0.0,
        request_ms);
  }
  return out;
}

}  // namespace perfbench
