#!/usr/bin/env bash
# Repo-convention linter. Checks, over src/ (and headers in tools/):
#
#   1. include guards: every header under src/ opens with a guard named
#      OSRS_<PATH>_H_ derived from its repo-relative path;
#   2. no `using namespace` at any scope inside headers;
#   3. no stray stdout writes (std::cout / printf / puts) inside src/ —
#      library code reports through Status and the logging macros, stdout
#      belongs to tools/, examples/, and bench/;
#   4. no raw std::chrono::steady_clock::now() in src/solver — solver code
#      times itself through Stopwatch (one ElapsedNanos read) and the
#      obs/trace.h spans, so timing stays consistent and mockable;
#   5. no naked `throw` in src/ outside src/fault — the library's main
#      paths report failures through Status/Result (see README.md,
#      "Failure semantics"); the one sanctioned thrower is the fault
#      subsystem's bad_alloc injection, and the BatchSummarizer boundary
#      only catches, never throws;
#   6. no raw std:: synchronization types (std::mutex, std::lock_guard,
#      std::condition_variable, ...) in src/ outside src/common/sync.h —
#      concurrent code goes through the annotated osrs::Mutex / MutexLock /
#      CondVar wrappers so Clang's -Wthread-safety capability analysis
#      sees every lock (see DESIGN.md, "Static analysis v2");
#   7. annotation coverage (tools/check_sync_annotations.sh): every
#      osrs::Mutex member must have at least one OSRS_GUARDED_BY /
#      OSRS_REQUIRES user naming it, so no lock is invisible to the
#      analysis;
#   8. optionally, when clang-tidy and build/compile_commands.json exist,
#      the curated .clang-tidy pass over every src/ translation unit
#      (skipped with --no-tidy or when either prerequisite is missing);
#   9. no raw stderr logging (std::cerr / fprintf(stderr, ...)) in src/ —
#      diagnostics go through the structured OSRS_LOG macros
#      (src/common/slog.h) so every event is one parseable JSON line; the
#      sanctioned exceptions are the logger's own stderr sink and the
#      OSRS_CHECK abort path in common/logging.h;
#  10. no raw allocation in solver hot paths: `new T[...]` / malloc-family
#      calls, and arithmetic-element std::vector scratch
#      (std::vector<double|float|intN_t|uint8_t|size_t>) are banned in
#      src/solver/ — per-solve scratch comes from the per-thread Arena
#      (src/common/arena.h), so steady-state solves allocate nothing (see
#      DESIGN.md, "Performance architecture"). std::vector<int> stays
#      allowed: selections escape into SummaryResult as owned vectors. The
#      solver's result type itself (src/solver/summarizer.h, which holds
#      only the Summarizer interface and SummaryResult) is exempt: its
#      fields, such as the per-pick `prefix_costs`, are owned results that
#      outlive the solve, not per-solve scratch.
#
# Build trees (build*/ at any depth) and anything they generate are
# excluded from every check.
#
# Usage: tools/lint.sh [--no-tidy]
# Exit: 0 clean, 1 violations found.
set -uo pipefail

cd "$(dirname "$0")/.."

run_tidy=1
if [[ "${1:-}" == "--no-tidy" ]]; then
  run_tidy=0
fi

failures=0

fail() {
  echo "lint: $1" >&2
  failures=$((failures + 1))
}

# Drops matches/paths under any build tree (build/, build-tsan/, nested
# cmake trees) so checked-out sources are the only lint subjects.
not_build() {
  grep -vE '(^|/)build[^/]*/' || true
}

# -- 1. include guards -------------------------------------------------------
while IFS= read -r header; do
  # src/core/model.h -> OSRS_CORE_MODEL_H_
  expected=$(echo "${header#src/}" | tr 'a-z/.' 'A-Z__' )
  expected="OSRS_${expected%_H}_H_"
  if ! grep -q "^#ifndef ${expected}\$" "$header"; then
    fail "$header: missing or misnamed include guard (expected ${expected})"
  elif ! grep -q "^#define ${expected}\$" "$header"; then
    fail "$header: guard ${expected} is never #defined"
  fi
done < <(find src -name '*.h' | not_build | sort)

# -- 2. using namespace in headers -------------------------------------------
while IFS= read -r match; do
  fail "using-namespace in a header: $match"
done < <(grep -rn --include='*.h' -E '^\s*using\s+namespace\b' src \
  | not_build)

# -- 3. stdout writes in library code ----------------------------------------
# std::fprintf(stderr, ...) is the sanctioned diagnostic channel; flag
# std::cout, bare printf/puts, and std::printf.
while IFS= read -r match; do
  fail "stdout write in src/: $match"
done < <(grep -rn --include='*.h' --include='*.cpp' -E \
  'std::cout|[^f.a-zA-Z_]printf\(|^\s*printf\(|std::puts|[^a-zA-Z_.]puts\(' \
  src | not_build | grep -vE '^[^:]+:[0-9]+: *(//|/\*|\*)' || true)

# -- 4. raw clock reads in solver code ----------------------------------------
# Solvers must go through common/stopwatch.h (or obs/trace.h spans) so all
# timing derives from one ElapsedNanos read.
while IFS= read -r match; do
  fail "raw steady_clock::now() in src/solver (use Stopwatch): $match"
done < <(grep -rn --include='*.h' --include='*.cpp' \
  'steady_clock::now()' src/solver | not_build \
  | grep -vE '^[^:]+:[0-9]+: *(//|/\*|\*)' || true)

# -- 5. naked throw in library code ------------------------------------------
# Status/Result is the failure channel everywhere except src/fault, whose
# entire purpose is to inject exceptions (bad_alloc) on demand.
while IFS= read -r match; do
  fail "naked throw in src/ (use Status; only src/fault may throw): $match"
done < <(grep -rn --include='*.h' --include='*.cpp' -E '\bthrow\b' src \
  | not_build | grep -v '^src/fault/' \
  | grep -vE '^[^:]+:[0-9]+: *(//|/\*|\*)' || true)

# -- 6. raw std:: sync types outside src/common/sync.h -----------------------
# The annotated wrappers (osrs::Mutex / MutexLock / ReleasableMutexLock /
# CondVar, src/common/sync.h) are the only sanctioned lock types in src/:
# a raw std::mutex carries no capability, so Clang's -Wthread-safety pass
# cannot check anything it guards. sync.h itself wraps the std types and
# is excluded; std::atomic is allowed (lock-free protocols are TSan's
# territory, see DESIGN.md "Static analysis v2").
while IFS= read -r match; do
  fail "raw std:: sync type in src/ (use common/sync.h wrappers): $match"
done < <(grep -rn --include='*.h' --include='*.cpp' -E \
  'std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable|condition_variable_any)\b' \
  src | not_build | grep -v '^src/common/sync\.h:' \
  | grep -vE '^[^:]+:[0-9]+: *(//|/\*|\*)' || true)

# -- 7. sync annotation coverage ---------------------------------------------
# Every osrs::Mutex member must be named by at least one annotation, so no
# lock silently escapes the capability analysis.
if ! ./tools/check_sync_annotations.sh; then
  fail "sync annotation coverage check failed (see above)"
fi

# -- 9. raw stderr logging in library code -----------------------------------
# Structured logging (common/slog.h OSRS_LOG macros) is the only sanctioned
# diagnostic channel in src/: ad-hoc std::cerr / fprintf(stderr, ...) lines
# are invisible to log pipelines. The logger's own default sink
# (common/slog.cpp) and the OSRS_CHECK abort path (common/logging.h) are
# the two exceptions.
while IFS= read -r match; do
  fail "raw stderr logging in src/ (use OSRS_LOG, common/slog.h): $match"
done < <(grep -rn --include='*.h' --include='*.cpp' -E \
  'std::cerr|fprintf\s*\(\s*stderr' \
  src | not_build \
  | grep -vE '^src/common/(slog\.(h|cpp)|logging\.h):' \
  | grep -vE '^[^:]+:[0-9]+: *(//|/\*|\*)' || true)

# -- 10. raw allocation in solver hot paths ----------------------------------
# Solver scratch is arena-backed (common/arena.h, one bump allocator per
# worker thread): raw new[]/malloc and arithmetic-element std::vector
# locals in src/solver reintroduce the per-solve churn this layout removed.
# Owned result vectors (std::vector<int> selections) are the sanctioned
# escape type, and so are the fields of the result type in
# src/solver/summarizer.h (SummaryResult::prefix_costs).
while IFS= read -r match; do
  fail "raw allocation in src/solver (use the per-solve Arena): $match"
done < <(grep -rn --include='*.h' --include='*.cpp' -E \
  '\bnew\s+[A-Za-z_][A-Za-z0-9_:<>, ]*\[|\b(malloc|calloc|realloc)\s*\(|std::vector<\s*(double|float|u?int(8|16|32|64)_t|size_t)\s*>' \
  src/solver | not_build | grep -v '^src/solver/summarizer\.h:' \
  | grep -vE '^[^:]+:[0-9]+: *(//|/\*|\*)' || true)

# -- 8. clang-tidy (optional) ------------------------------------------------
if [[ $run_tidy -eq 1 ]]; then
  if command -v clang-tidy > /dev/null && [[ -f build/compile_commands.json ]]; then
    echo "lint: running clang-tidy over src/ (this takes a while)"
    mapfile -t sources < <(find src -name '*.cpp' | not_build | sort)
    if ! clang-tidy -p build --quiet "${sources[@]}"; then
      fail "clang-tidy reported findings"
    fi
  else
    echo "lint: clang-tidy or build/compile_commands.json missing — skipped"
  fi
fi

if [[ $failures -gt 0 ]]; then
  echo "lint: ${failures} violation(s)" >&2
  exit 1
fi
echo "lint: clean"
