#!/usr/bin/env bash
# The one-command tier-1 + sanitizer + invariant gate:
#   1. lint-invariants (blocking): tools/lint/sensord_lint.py over the
#      release preset's compile_commands.json — determinism rules (no wall
#      clock / ambient entropy / unordered-iteration-to-sink), the
#      single-thread contract (no thread, lock, atomic or future in src/),
#      src/-wide source/test pairing (exemptions in
#      tools/lint/test_pairing.map), and header self-containment.
#      Suppressions only via tools/lint/baseline.txt (empty by policy).
#      Configure-only: reuses the release preset's compilation database, no
#      extra full build.
#   2. Release preset: build + full ctest suite (what ships).
#   3. ASan/UBSan preset: build + ctest minus the soak label (soak sweeps
#      are long under ASan; they get their own sanitizer pass in step 4),
#      via scripts/check.sh.
#   4. TSan preset: build + the soak-labelled suite plus metrics_test.
#      src/ is single-threaded (DESIGN.md §12, enforced by step 1), so TSan
#      here guards the contract rather than a concurrent layer: the soak
#      tests drive the full simulator (transport retries, fault schedules,
#      crash windows, amnesia checkpoint/restore) for thousands of virtual
#      seconds, and a thread that crept in would race its unsynchronised
#      state; metrics_test covers the registry those runs feed.
#      SENSORD_SOAK_SEEDS widens the crash-recovery seed sweep (default 4;
#      nightly runs export a larger value).
#   5. Determinism gate: the seeded trace_outliers demo runs twice and its
#      stdout + causal-trace + flight-recorder JSONL are diffed
#      byte-for-byte, and the golden e2e history is regenerated once and
#      diffed against the committed tests/golden/e2e_outliers.txt.
#   6. Benchmark driver smoke: python3 perfbench/smoke_test.py builds the
#      benchmark (perfbench/) against this src/ and runs every workload at
#      a tiny scale, so a src/ API change that breaks the benchmark fails
#      here.
#   7. clang-tidy over src tests bench examples via scripts/lint.sh
#      (skipped with a notice if clang-tidy is not installed).
#   8. Quick bench run via scripts/bench.sh — proves the bench harnesses run
#      and leave valid BENCH_*.json artifacts, plus the causal-trace /
#      flight-recorder JSONL pair, re-validated here with
#      tools/trace/trace_report.py --validate (strict: malformed lines,
#      orphan spans and span-less decisions are fatal).
# Exits nonzero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== ci.sh [1/8] lint-invariants (sensord_lint) ==="
cmake --preset release >/dev/null   # refresh compile_commands.json only
python3 tools/lint/sensord_lint.py \
    --compdb build/release/compile_commands.json

echo "=== ci.sh [2/8] release build + ctest ==="
cmake --preset release
cmake --build --preset release -j "${JOBS}"
ctest --test-dir build/release --output-on-failure -j "${JOBS}"

echo "=== ci.sh [3/8] asan-ubsan build + ctest (minus soak) ==="
scripts/check.sh -LE soak

echo "=== ci.sh [4/8] tsan build + soak suite + metrics_test ==="
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
export SENSORD_SOAK_SEEDS="${SENSORD_SOAK_SEEDS:-4}"
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}"
ctest --test-dir build/tsan --output-on-failure -j "${JOBS}" -L soak
build/tsan/tests/metrics_test

echo "=== ci.sh [5/8] determinism gate (run twice, diff; golden regen) ==="
DET_DIR="$(mktemp -d)"
trap 'rm -rf "${DET_DIR}"' EXIT
# Gate (a): two runs of the seeded trace_outliers demo must produce the same
# stdout, causal trace and flight-recorder dump, byte for byte.
for run in a b; do
  SENSORD_TRACE_JSONL="${DET_DIR}/trace_${run}.jsonl" \
  SENSORD_FLIGHT_JSONL="${DET_DIR}/flight_${run}.jsonl" \
      build/release/examples/trace_outliers > "${DET_DIR}/stdout_${run}.txt"
done
diff -u "${DET_DIR}/stdout_a.txt" "${DET_DIR}/stdout_b.txt"
diff -u "${DET_DIR}/trace_a.jsonl" "${DET_DIR}/trace_b.jsonl"
diff -u "${DET_DIR}/flight_a.jsonl" "${DET_DIR}/flight_b.jsonl"
# Gate (b): regenerate the golden and diff it against the committed file —
# catches a stale golden that the in-process comparison could not. The
# committed file is restored afterwards (and by the trap on failure).
GOLDEN="tests/golden/e2e_outliers.txt"
cp "${GOLDEN}" "${DET_DIR}/golden_committed.txt"
trap 'cp -f "${DET_DIR}/golden_committed.txt" tests/golden/e2e_outliers.txt; rm -rf "${DET_DIR}"' EXIT
SENSORD_REGEN_GOLDEN=1 build/release/tests/golden_e2e_test \
    --gtest_filter='GoldenE2eTest.DetectionHistoryMatchesGolden' >/dev/null
cp "${GOLDEN}" "${DET_DIR}/golden_regen.txt"
cp -f "${DET_DIR}/golden_committed.txt" "${GOLDEN}"
diff -u "${DET_DIR}/golden_committed.txt" "${DET_DIR}/golden_regen.txt"
echo "determinism: trace_outliers artifacts replay identically; golden regenerates unchanged"

echo "=== ci.sh [6/8] benchmark driver smoke (perfbench/smoke_test.py) ==="
python3 perfbench/smoke_test.py

echo "=== ci.sh [7/8] clang-tidy ==="
scripts/lint.sh

echo "=== ci.sh [8/8] quick bench + BENCH_*.json + trace validation ==="
SENSORD_QUICK=1 scripts/bench.sh
# bench.sh already validates its own artifacts; gate on them here explicitly
# so a future bench.sh refactor cannot silently drop the check.
python3 tools/trace/trace_report.py TRACE_demo.jsonl \
    --flight FLIGHT_demo.jsonl --validate

echo "ci.sh: all gates green"
# The ROADMAP's tracked north-star number: net src/ .cc/.h lines.
echo "ci.sh: src/ .cc/.h lines: $(find src -name '*.cc' -o -name '*.h' | xargs cat | wc -l)"
