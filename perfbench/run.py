#!/usr/bin/env python3
"""End-to-end benchmark of the review-summarization library.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ingest_doctor --seed 1 \
        --seconds 30 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench on first use, then runs one workload. The workload's
fixed shape -- corpus scale, ladder of rates, thread counts -- comes from
perfbench/workloads.json. Everything the run writes stays under
.bench_build/.

stdout carries the harness's report: a header line, every metric by name
with its unit, the per-layer ledger for --trace 1, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}. That line is
printed only after its metric names and units were checked against
BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1). Exits
non-zero, without a result line, when the library sources are missing, the
build fails, the run fails or times out, or an output is incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def build():
    """Configures (once) and builds the harness; build output goes to
    stderr so stdout stays the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library and benchmark sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def check_result(line, expected):
    """Returns an error message, or None when `line` is a well-formed
    result carrying exactly the `expected` {name: unit} metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON: %r" % line[:200]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys %s" % sorted(result)
    metrics = result["metrics"]
    got = {name: value.get("unit") for name, value in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "wrong units %s" % (missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (have %s, or all)" % (args.workload,
                                                         ", ".join(names)))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    section = "per_layer" if args.trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in benchmark[section]}

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    # `--workload all` runs every workload in turn; each prints its own
    # report and result line.
    for workload in names if args.workload == "all" else [args.workload]:
        command = [HARNESS, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace",
                   str(args.trace), "--work-dir", WORK_DIR,
                   "--source-id", source_id()]
        for name, value in workloads[workload]["params"].items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            command += ["--" + name, str(value)]
        try:
            run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s exceeded %d s" % (workload, RUN_TIMEOUT_S), 3)

        lines = run.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        sys.stdout.flush()
        if run.returncode != 0:
            fail("%s: harness exited with %d" % (workload, run.returncode), 3)
        error = check_result(lines[-1], expected)
        if error:
            fail("%s: %s" % (workload, error), 3)
        print(lines[-1])
        sys.stdout.flush()


if __name__ == "__main__":
    main()
