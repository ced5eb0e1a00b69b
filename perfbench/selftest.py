#!/usr/bin/env python3
"""Self-test of the benchmark in its short mode (a few seconds per run).

    python3 perfbench/selftest.py [--seconds 3]

Runs every workload untraced and traced on two seeds through run.py and
asserts that
  1. every metric BENCHMARK.json names is emitted, with its unit, both in the
     result line and in the human-readable report;
  2. generator threads + server workers <= nproc, as the header reports them;
  3. the generator's lag is reported (serve_mixed);
  4. both seeds give the same qualitative ledger: text is the majority of
     ingest_doctor, coverage-graph build the majority of ingest_phone, the
     text layer does zero work on serve_mixed, and the serve/store layers
     work only on serve_mixed; the ledger's tracing overhead stays small;
  5. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.
Exits non-zero on the first failed assertion. Takes about a minute plus
the first build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok    " + message)


def run(workload, seed, seconds, trace, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(process):
    lines = process.stdout.rstrip("\n").split("\n")
    header = json.loads(lines[0].split(" ", 1)[1])
    reported = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, unit = line.split()[1:4]
            reported[name] = unit
    return header, reported, json.loads(lines[-1]), process.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    nproc = os.cpu_count() or 1
    ledgers = {}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for seed in SEEDS:
            for trace in (0, 1):
                process = run(workload, seed, args.seconds, trace)
                label = "%s seed %d trace %d" % (workload, seed, trace)
                if process.returncode != 0:
                    print(process.stdout[-2000:] + process.stderr[-2000:])
                check(process.returncode == 0, "%s exits 0" % label)
                header, reported, result, text = parse(process)
                check(result["correct"] and result["failed"] == 0,
                      "%s: correct, nothing failed" % label)
                section = "per_layer" if trace else "end_to_end"
                for metric in benchmark[section]:
                    name, unit = metric["name"], metric["unit"]
                    emitted = result["metrics"].get(name, {})
                    if emitted.get("unit") != unit or reported.get(name) != unit:
                        check(False, "%s emits %s in %s" % (label, name, unit))
                check(True, "%s emits all %d %s metrics with units" %
                      (label, len(benchmark[section]), section))
                check(header["generator_threads"] + header["server_workers"]
                      <= nproc,
                      "%s: %d generator + %d worker threads <= nproc %d" %
                      (label, header["generator_threads"],
                       header["server_workers"], nproc))
                if workload == "serve_mixed":
                    check("lag growth" in text,
                          "%s reports the generator's lag per rung" % label)
                if trace:
                    ledgers[(workload, seed)] = {
                        name: value["value"]
                        for name, value in result["metrics"].items()}

    for seed in SEEDS:
        doctor = ledgers[("ingest_doctor", seed)]
        phone = ledgers[("ingest_phone", seed)]
        serve = ledgers[("serve_mixed", seed)]
        text_ms = (doctor["text.split_ms"] + doctor["text.tokenize_ms"] +
                   doctor["extraction.match_ms"] +
                   doctor["sentiment.score_ms"])
        total_ms = doctor["api.annotate_ms"] + doctor["api.summarize_ms"]
        check(text_ms > 0.5 * total_ms,
              "seed %d: text layers are %.0f%% of ingest_doctor" %
              (seed, 100 * text_ms / total_ms))
        total_ms = phone["api.annotate_ms"] + phone["api.summarize_ms"]
        check(phone["coverage.build_ms"] > 0.5 * total_ms,
              "seed %d: coverage build is %.0f%% of ingest_phone" %
              (seed, 100 * phone["coverage.build_ms"] / total_ms))
        text_rows = [n for n in serve if n.split(".")[0] in
                     ("text", "extraction", "sentiment")]
        check(all(serve[n] == 0 for n in text_rows),
              "seed %d: text, extraction, sentiment do zero work on "
              "serve_mixed" % seed)
        check(serve["serve.generator_lag_ms_p99"] > 0 and
              serve["store.update_ms_p50"] > 0 and
              serve["serve.solves_per_read"] > 0,
              "seed %d: serve and store layers work on serve_mixed" % seed)
        for ingest in (doctor, phone):
            serving = [n for n in ingest if n.split(".")[0] in
                       ("serve", "store")]
            check(all(ingest[n] == 0 for n in serving),
                  "seed %d: serve and store layers idle on ingest" % seed)
        for name, ledger in (("ingest_doctor", doctor),
                             ("ingest_phone", phone)):
            check(abs(ledger["trace.overhead_ratio"]) < 0.15,
                  "seed %d: %s tracing overhead %.1f%% of the untraced pass" %
                  (seed, name, 100 * ledger["trace.overhead_ratio"]))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = run("ingest_doctor", 1, args.seconds, 0, cwd=bare)
    check(process.returncode != 0 and '"correct"' not in process.stdout,
          "without the library sources run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
