// osrs_serve — the serving-layer daemon/CLI over one review corpus.
//
// Loads an `# osrs-corpus v1` file (or generates the synthetic cell-phone
// corpus when no file is given) and serves per-item summaries through
// SummaryServer: bounded queue with admission control, deadline-aware load
// shedding, single-flight request coalescing, and the version-keyed summary
// cache. Two modes:
//
//   * interactive (default) — a line protocol on stdin, one command per
//     line, until EOF/quit. The "connections" of the daemon:
//       get <item-id> [k]   serve a summary (outcome + entries)
//       bump                bump the corpus epoch (invalidates the cache)
//       stats               counters, cache stats, p50 solve cost
//       metrics             the registry in OpenMetrics text format
//       traces              recent request traces, one JSON line each
//       snapshot            force journal compaction into a fresh snapshot
//       drain               graceful drain (then the session ends)
//       quit
//   * --drive <n> — a closed-loop load driver: <n> requests issued from
//     --clients concurrent client threads round-robin over the items,
//     then the counters (and the accounting identity
//     submitted == admitted + rejected, admitted == completed+shed+failed)
//     are printed/checked. Exit 1 when the identity is violated. With
//     --state-dir the run finishes with a durability self-test: graceful
//     drain (final snapshot), restart from the state dir alone, and a
//     verification that the recovered epoch/items match and a fresh solve
//     succeeds.
//
// Durability: --state-dir <dir> persists the corpus (checksummed
// snapshots + an epoch-mutation journal, see store/state_store.h) and
// recovers committed state on startup. SIGTERM/SIGINT trigger a graceful
// drain — stop admitting, drain the queue within --drain-deadline-ms,
// write a final snapshot — and exit 0.
//
// Metrics export: --metrics-file <path> writes an OpenMetrics snapshot of
// the registry at exit (and, with --metrics-interval <sec>, periodically
// from a background thread that also logs a structured delta report).
//
// Exit codes: 0 success, 1 accounting violation (--drive), 2 usage/IO
// (corrupt durable state included).

#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/slog.h"
#include "common/strings.h"
#include "common/sync.h"
#include "datagen/cellphone_corpus.h"
#include "datagen/corpus_io.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/request_trace.h"
#include "serve/server.h"
#include "store/journal.h"

namespace {

using osrs::serve::ServeOutcome;
using osrs::serve::ServeOutcomeToString;
using osrs::serve::ServeRequest;
using osrs::serve::ServeResponse;
using osrs::serve::ServerCounters;
using osrs::serve::SummaryServer;

struct CliOptions {
  std::string path;  // empty = synthetic corpus
  double scale = 0.05;
  int64_t drive = -1;       // -1 = interactive
  int64_t mutate_every = 0;  // --drive: mutate after every n requests; 0=off
  int clients = 8;
  int k = 5;
  bool json = false;
  std::string metrics_file;       // empty = no file export
  double metrics_interval = 0.0;  // seconds; <= 0 = export at exit only
  osrs::serve::ServeOptions serve;
};

/// Set by the SIGTERM/SIGINT handler; the main loop observes it after the
/// interrupted read and runs the graceful-drain path. sig_atomic_t is the
/// only type async-signal-safe to write from a handler.
volatile std::sig_atomic_t g_shutdown_signal = 0;

void HandleShutdownSignal(int signum) { g_shutdown_signal = signum; }

void InstallSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = &HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: the blocking stdin read must return (EINTR) so the
  // drain actually starts instead of waiting for the next input line.
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

/// Periodic OpenMetrics exporter: every interval it snapshots the global
/// registry, writes the rendered text to `path` (when set, through the
/// failpoint-aware corpus_io helper), and logs one structured
/// "metrics report" event with the counter deltas since the last tick.
/// `ExportOnce` is also the final-flush entry point — --drive calls it
/// after the load run so ci can validate a deterministic snapshot.
class MetricsExporter {
 public:
  MetricsExporter(std::string path, double interval_seconds)
      : path_(std::move(path)) {
    if (interval_seconds > 0.0) {
      interval_ms_ = interval_seconds * 1000.0;
      thread_ = std::thread([this] { Loop(); });
    }
  }

  ~MetricsExporter() {
    if (!thread_.joinable()) return;
    {
      osrs::MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

  osrs::Status ExportOnce() {
    osrs::obs::RegistrySnapshot snapshot =
        osrs::obs::MetricsRegistry::Global().Snapshot();
    int64_t changed = 0;
    int64_t delta_total = 0;
    {
      osrs::MutexLock lock(mutex_);
      for (const auto& counter : snapshot.counters) {
        auto [it, inserted] = last_counters_.emplace(counter.name, 0);
        int64_t delta = counter.value - it->second;
        if (delta != 0) {
          ++changed;
          delta_total += delta;
          it->second = counter.value;
        }
      }
    }
    osrs::Status status;
    if (!path_.empty()) {
      status = osrs::WriteTextFile(path_, osrs::obs::RenderOpenMetrics(snapshot));
    }
    OSRS_LOG(::osrs::slog::Level::kInfo, "serve", "metrics report",
             {"file", path_}, {"counters", snapshot.counters.size()},
             {"changed", changed}, {"delta_total", delta_total},
             {"write_ok", status.ok()});
    return status;
  }

 private:
  void Loop() {
    for (;;) {
      {
        osrs::MutexLock lock(mutex_);
        // WaitForMs returns false on timeout — a tick; true wake-ups are
        // either stop requests or spurious (re-wait the full interval).
        while (!stopping_ && cv_.WaitForMs(mutex_, interval_ms_)) {
        }
        if (stopping_) return;
      }
      osrs::Status status = ExportOnce();
      if (!status.ok()) {
        OSRS_LOG(::osrs::slog::Level::kError, "serve",
                 "metrics export failed",
                 {"file", path_}, {"detail", status.message()});
      }
    }
  }

  const std::string path_;
  double interval_ms_ = 0.0;
  osrs::Mutex mutex_;
  osrs::CondVar cv_;
  bool stopping_ OSRS_GUARDED_BY(mutex_) = false;
  std::map<std::string, int64_t> last_counters_ OSRS_GUARDED_BY(mutex_);
  std::thread thread_;
};

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage: osrs_serve [options] [<corpus-file>]\n"
      "\n"
      "Serves per-item summaries from a SummaryServer (bounded queue,\n"
      "admission control, load shedding, coalescing, version-keyed cache).\n"
      "Without a corpus file a synthetic cell-phone corpus is generated.\n"
      "\n"
      "modes:\n"
      "  (default)           interactive stdin protocol:\n"
      "                        get <item-id> [k] | bump | stats |\n"
      "                        metrics | traces | snapshot | drain | quit\n"
      "  --drive <n>         issue n requests from --clients threads,\n"
      "                      print counters, verify accounting (with\n"
      "                      --state-dir: drain, restart, verify recovery)\n"
      "  --mutate-every <n>  in --drive mode, interleave one mutation\n"
      "                      (item update or epoch bump, alternating)\n"
      "                      per n requests — exercises the journal\n"
      "\n"
      "durability:\n"
      "  --state-dir <dir>   persist snapshots + mutation journal in dir\n"
      "                      (must exist); recover committed state at boot\n"
      "  --fsync-policy <p>  always | interval | never (default always)\n"
      "  --fsync-interval-ms <ms>\n"
      "                      max fsync gap under the interval policy\n"
      "  --compact-bytes <n> journal size triggering compaction\n"
      "  --drain-deadline-ms <ms>\n"
      "                      graceful-drain budget (SIGTERM/SIGINT, drain)\n"
      "  --watchdog-ms <ms>  cancel solves stalled longer than ms (0=off)\n"
      "\n"
      "options:\n"
      "  --threads <n>       solver worker threads (default: hardware)\n"
      "  --clients <n>       --drive client threads (default 8)\n"
      "  --queue <n>         max queue depth (default 256)\n"
      "  --max-wait-ms <ms>  admission bound on estimated wait\n"
      "  --deadline-ms <ms>  default per-request deadline\n"
      "  --cache <n>         summary cache capacity (default 1024)\n"
      "  --no-stale          never serve stale degraded summaries\n"
      "  --scale <s>         synthetic corpus scale (default 0.05)\n"
      "  -k <n>              summary size (default 5)\n"
      "  --json              counters as JSON instead of text\n"
      "  --metrics-file <f>  write an OpenMetrics registry snapshot to f\n"
      "                      at exit (and on every exporter tick)\n"
      "  --metrics-interval <sec>\n"
      "                      periodic export + structured delta report\n"
      "  --slow-ms <ms>      log the full span tree of requests slower\n"
      "                      than ms (0 = off)\n"
      "  --trace-ring <n>    recent-trace ring capacity (default 128)\n"
      "  -h, --help          this message\n"
      "\n"
      "exit codes: 0 success, 1 accounting violation, 2 usage or I/O\n",
      out);
}

void PrintStats(const SummaryServer& server, bool json) {
  ServerCounters counters = server.counters();
  osrs::serve::CacheStats cache = server.cache_stats();
  if (json) {
    std::printf(
        "{\"counters\":%s,\"cache\":{\"entries\":%lld,\"hits\":%lld,"
        "\"misses\":%lld,\"stale_hits\":%lld,\"evictions\":%lld},"
        "\"p50_solve_ms\":%.3f,\"epoch\":%llu,\"workers\":%d}\n",
        counters.ToJson().c_str(), static_cast<long long>(cache.entries),
        static_cast<long long>(cache.hits),
        static_cast<long long>(cache.misses),
        static_cast<long long>(cache.stale_hits),
        static_cast<long long>(cache.evictions), server.p50_solve_ms(),
        static_cast<unsigned long long>(server.epoch()),
        server.num_workers());
    return;
  }
  std::printf(
      "requests: %lld submitted, %lld admitted, %lld rejected\n"
      "outcomes: %lld completed, %lld shed, %lld failed "
      "(%lld coalesced, %lld cache hits, %lld degraded)\n"
      "solves:   %lld (p50 %.2f ms, %d workers, epoch %llu)\n"
      "cache:    %lld entries, %lld hits / %lld misses, %lld stale hits, "
      "%lld evictions\n",
      static_cast<long long>(counters.submitted),
      static_cast<long long>(counters.admitted),
      static_cast<long long>(counters.rejected),
      static_cast<long long>(counters.completed),
      static_cast<long long>(counters.shed),
      static_cast<long long>(counters.failed),
      static_cast<long long>(counters.coalesced),
      static_cast<long long>(counters.cache_hits),
      static_cast<long long>(counters.degraded),
      static_cast<long long>(counters.solves), server.p50_solve_ms(),
      server.num_workers(), static_cast<unsigned long long>(server.epoch()),
      static_cast<long long>(cache.entries),
      static_cast<long long>(cache.hits),
      static_cast<long long>(cache.misses),
      static_cast<long long>(cache.stale_hits),
      static_cast<long long>(cache.evictions));
}

int RunInteractive(SummaryServer& server, const CliOptions& options) {
  std::string line;
  char buffer[4096];
  for (;;) {
    if (std::fgets(buffer, sizeof(buffer), stdin) == nullptr) {
      // EOF or a signal-interrupted read; either way the loop is done.
      // The caller handles g_shutdown_signal (graceful drain).
      std::clearerr(stdin);
      break;
    }
    if (g_shutdown_signal != 0) break;
    line.assign(buffer);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    std::vector<std::string> parts = osrs::Split(line, ' ');
    if (parts.empty() || parts[0].empty()) continue;
    const std::string& command = parts[0];
    if (command == "quit" || command == "exit") break;
    if (command == "bump") {
      std::printf("epoch %llu\n",
                  static_cast<unsigned long long>(server.BumpEpoch()));
      continue;
    }
    if (command == "stats") {
      PrintStats(server, options.json);
      continue;
    }
    if (command == "metrics") {
      std::fputs(osrs::obs::RenderGlobalOpenMetrics().c_str(), stdout);
      continue;
    }
    if (command == "traces") {
      std::vector<osrs::obs::RequestTrace> traces = server.recent_traces();
      for (const osrs::obs::RequestTrace& trace : traces) {
        std::printf("%s\n", trace.ToJson().c_str());
      }
      std::printf("# %zu trace(s)\n", traces.size());
      continue;
    }
    if (command == "snapshot") {
      osrs::Status status = server.ForceSnapshot();
      if (status.ok()) {
        std::printf("snapshot written (journal compacted)\n");
      } else {
        std::printf("snapshot failed: %s\n", status.ToString().c_str());
      }
      continue;
    }
    if (command == "drain") {
      bool drained = server.Drain();
      std::printf("drain %s\n",
                  drained ? "complete" : "deadline expired (remainder shed)");
      // The server is stopped after a drain; the session is over.
      break;
    }
    if (command == "get") {
      if (parts.size() < 2) {
        std::fputs("error: get needs an item id\n", stdout);
        continue;
      }
      ServeRequest request;
      request.item_id = parts[1];
      request.k = options.k;
      if (parts.size() >= 3) {
        int64_t k = 0;
        if (!osrs::ParseInt64(parts[2], &k) || k < 0) {
          std::fputs("error: k must be a non-negative int\n", stdout);
          continue;
        }
        request.k = static_cast<int>(k);
      }
      ServeResponse response = server.Serve(request);
      if (!response.status.ok()) {
        std::printf("%s: %s\n", ServeOutcomeToString(response.outcome),
                    response.status.ToString().c_str());
        continue;
      }
      std::printf("%s%s (epoch %llu, %.2f ms):\n",
                  ServeOutcomeToString(response.outcome),
                  response.degraded ? " [degraded]" : "",
                  static_cast<unsigned long long>(response.epoch),
                  response.total_ms);
      for (const osrs::SummaryEntry& entry : response.summary.entries) {
        std::printf("  %s\n", entry.display.c_str());
      }
      continue;
    }
    std::printf(
        "error: unknown command '%s' "
        "(get/bump/stats/metrics/traces/snapshot/drain/quit)\n",
        command.c_str());
  }
  return 0;
}

int RunDrive(SummaryServer& server, const std::vector<std::string>& item_ids,
             const osrs::Item& mutation_template, const CliOptions& options) {
  int clients = options.clients > 0 ? options.clients : 1;
  int64_t total = options.drive;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&server, &item_ids, &mutation_template, &options,
                          total, clients, c] {
      int64_t mutations = 0;
      for (int64_t i = c; i < total; i += clients) {
        // Client 0 interleaves mutations with its load so --drive also
        // exercises the journal write path (and, under ci fault
        // schedules, journal failure handling) instead of only reads.
        // Alternating update/bump covers both journal record types; the
        // update rewrites an existing id so the restart self-test's
        // snapshot_items count stays equal to the corpus size.
        if (c == 0 && options.mutate_every > 0 &&
            i % options.mutate_every == 0) {
          if (++mutations % 2 == 0) {
            server.BumpEpoch();
          } else {
            osrs::Item mutated = mutation_template;
            if (!mutated.reviews.empty() &&
                !mutated.reviews.front().sentences.empty()) {
              mutated.reviews.front().sentences.front().text +=
                  " [rev " + std::to_string(mutations) + "]";
            }
            server.UpdateItem(std::move(mutated));
          }
        }
        ServeRequest request;
        request.item_id = item_ids[static_cast<size_t>(i) % item_ids.size()];
        request.k = options.k;
        (void)server.Serve(request);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PrintStats(server, options.json);
  ServerCounters counters = server.counters();
  if (counters.submitted != counters.admitted + counters.rejected ||
      counters.admitted !=
          counters.completed + counters.shed + counters.failed) {
    std::fputs("osrs_serve: accounting identity violated\n", stderr);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.serve.summarizer.collect_stats = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next_int = [&](const char* flag, int64_t* out) {
      if (i + 1 >= argc || !osrs::ParseInt64(argv[i + 1], out) || *out < 0) {
        std::fprintf(stderr, "osrs_serve: %s needs a non-negative int\n",
                     flag);
        return false;
      }
      ++i;
      return true;
    };
    auto next_double = [&](const char* flag, double* out) {
      if (i + 1 >= argc || !osrs::ParseDouble(argv[i + 1], out) ||
          *out < 0.0) {
        std::fprintf(stderr, "osrs_serve: %s needs a non-negative number\n",
                     flag);
        return false;
      }
      ++i;
      return true;
    };
    int64_t value = 0;
    if (arg == "--drive") {
      if (!next_int("--drive", &options.drive)) return 2;
    } else if (arg == "--mutate-every") {
      if (!next_int("--mutate-every", &options.mutate_every)) return 2;
    } else if (arg == "--threads") {
      if (!next_int("--threads", &value)) return 2;
      options.serve.num_threads = static_cast<int>(value);
    } else if (arg == "--clients") {
      if (!next_int("--clients", &value)) return 2;
      options.clients = static_cast<int>(value);
    } else if (arg == "--queue") {
      if (!next_int("--queue", &value) || value == 0) {
        std::fprintf(stderr, "osrs_serve: --queue needs a positive int\n");
        return 2;
      }
      options.serve.max_queue_depth = static_cast<size_t>(value);
    } else if (arg == "--max-wait-ms") {
      if (!next_double("--max-wait-ms", &options.serve.max_estimated_wait_ms))
        return 2;
    } else if (arg == "--deadline-ms") {
      if (!next_double("--deadline-ms", &options.serve.default_deadline_ms))
        return 2;
    } else if (arg == "--cache") {
      if (!next_int("--cache", &value)) return 2;
      options.serve.cache_capacity = static_cast<size_t>(value);
    } else if (arg == "--no-stale") {
      options.serve.serve_stale_when_over_budget = false;
    } else if (arg == "--state-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "osrs_serve: --state-dir needs a directory\n");
        return 2;
      }
      options.serve.state_dir = argv[++i];
    } else if (arg == "--fsync-policy") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "osrs_serve: --fsync-policy needs "
                     "always|interval|never\n");
        return 2;
      }
      auto policy = osrs::store::ParseFsyncPolicy(argv[++i]);
      if (!policy.ok()) {
        std::fprintf(stderr, "osrs_serve: %s\n",
                     policy.status().ToString().c_str());
        return 2;
      }
      options.serve.fsync_policy = *policy;
    } else if (arg == "--fsync-interval-ms") {
      if (!next_int("--fsync-interval-ms", &value)) return 2;
      options.serve.fsync_interval_ms = static_cast<uint64_t>(value);
    } else if (arg == "--compact-bytes") {
      if (!next_int("--compact-bytes", &value)) return 2;
      options.serve.journal_compact_threshold_bytes =
          static_cast<uint64_t>(value);
    } else if (arg == "--drain-deadline-ms") {
      if (!next_double("--drain-deadline-ms",
                       &options.serve.drain_deadline_ms))
        return 2;
    } else if (arg == "--watchdog-ms") {
      if (!next_double("--watchdog-ms",
                       &options.serve.watchdog_stall_threshold_ms))
        return 2;
    } else if (arg == "--metrics-file") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "osrs_serve: --metrics-file needs a path\n");
        return 2;
      }
      options.metrics_file = argv[++i];
    } else if (arg == "--metrics-interval") {
      if (!next_double("--metrics-interval", &options.metrics_interval))
        return 2;
    } else if (arg == "--slow-ms") {
      if (!next_double("--slow-ms",
                       &options.serve.slow_request_threshold_ms))
        return 2;
    } else if (arg == "--trace-ring") {
      if (!next_int("--trace-ring", &value)) return 2;
      options.serve.trace_ring_capacity = static_cast<size_t>(value);
    } else if (arg == "--scale") {
      if (!next_double("--scale", &options.scale)) return 2;
    } else if (arg == "-k") {
      if (!next_int("-k", &value)) return 2;
      options.k = static_cast<int>(value);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "osrs_serve: unknown option '%s'\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    } else if (options.path.empty()) {
      options.path = std::string(arg);
    } else {
      std::fprintf(stderr, "osrs_serve: more than one corpus file given\n");
      return 2;
    }
  }

  osrs::Corpus corpus;
  if (options.path.empty()) {
    osrs::CellPhoneCorpusOptions corpus_options;
    corpus_options.scale = options.scale;
    corpus = osrs::GenerateCellPhoneCorpus(corpus_options);
  } else {
    auto loaded = osrs::LoadCorpusFromFile(options.path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "osrs_serve: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    corpus = std::move(loaded).value();
  }
  if (corpus.items.empty()) {
    std::fputs("osrs_serve: corpus has no items\n", stderr);
    return 2;
  }

  std::vector<std::string> item_ids;
  item_ids.reserve(corpus.items.size());
  for (const osrs::Item& item : corpus.items) item_ids.push_back(item.id);
  // Kept out of the server so --mutate-every can rewrite a real item
  // (same id, tweaked text) after corpus.items is moved away.
  osrs::Item mutation_template = corpus.items.front();

  osrs::obs::MetricsRegistry::Global().SetEnabled(true);
  InstallSignalHandlers();
  auto server = std::make_unique<SummaryServer>(
      &corpus.ontology, std::move(corpus.items), options.serve);
  if (!server->recovery_status().ok()) {
    // Corrupt durable state is kDataLoss — refuse to serve rather than
    // silently run non-durable atop (or without) the committed state.
    std::fprintf(stderr, "osrs_serve: state recovery failed: %s\n",
                 server->recovery_status().ToString().c_str());
    return 2;
  }
  if (server->persistence_enabled()) {
    std::fprintf(stderr, "osrs_serve: recovered %s\n",
                 server->recovery_info().ToJson().c_str());
  }
  std::fprintf(stderr, "osrs_serve: %zu item(s), %d worker(s), queue %zu\n",
               item_ids.size(), server->num_workers(),
               options.serve.max_queue_depth);

  bool exporting =
      !options.metrics_file.empty() || options.metrics_interval > 0.0;
  MetricsExporter exporter(options.metrics_file, options.metrics_interval);

  int code = options.drive >= 0
                 ? RunDrive(*server, item_ids, mutation_template, options)
                 : RunInteractive(*server, options);

  if (g_shutdown_signal != 0) {
    // Graceful shutdown: stop admitting, drain within the deadline, write
    // the final snapshot (inside Drain), exit 0 — SIGTERM is routine
    // operations, not an error.
    bool drained = server->Drain();
    std::fprintf(stderr, "osrs_serve: signal %d: drain %s\n",
                 static_cast<int>(g_shutdown_signal),
                 drained ? "complete" : "deadline expired");
  } else if (code == 0 && options.drive >= 0 &&
             server->persistence_enabled()) {
    // Durability self-test: drain (final snapshot), restart from the state
    // dir ALONE (no initial corpus), and verify the recovered state serves.
    uint64_t epoch_before = server->epoch();
    bool drained = server->Drain();
    server.reset();
    SummaryServer restarted(&corpus.ontology, {}, options.serve);
    ServeRequest probe;
    probe.item_id = item_ids[0];
    probe.k = options.k;
    ServeResponse response = restarted.Serve(probe);
    bool ok = restarted.recovery_status().ok() &&
              restarted.recovery_info().found_snapshot &&
              restarted.recovery_info().snapshot_items == item_ids.size() &&
              restarted.epoch() == epoch_before && response.status.ok() &&
              response.outcome == ServeOutcome::kSolved;
    std::fprintf(stderr,
                 "osrs_serve: restart check %s (drain %s, recovered %s, "
                 "epoch %llu -> %llu, probe %s)\n",
                 ok ? "passed" : "FAILED", drained ? "complete" : "timeout",
                 restarted.recovery_info().ToJson().c_str(),
                 static_cast<unsigned long long>(epoch_before),
                 static_cast<unsigned long long>(restarted.epoch()),
                 ServeOutcomeToString(response.outcome));
    if (!ok) code = 1;
  }

  // Final flush: --drive runs (and interactive sessions) always leave one
  // complete snapshot behind, so ci can validate the exported format
  // deterministically regardless of the exporter tick phase.
  if (exporting) {
    osrs::Status status = exporter.ExportOnce();
    if (!status.ok()) {
      std::fprintf(stderr, "osrs_serve: metrics export: %s\n",
                   status.ToString().c_str());
      if (code == 0) code = 2;
    }
  }
  return code;
}
