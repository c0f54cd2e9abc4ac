#!/usr/bin/env bash
# Continuous-integration entry point: configure, build everything (keep
# going on failure so one broken target doesn't hide the rest), then run
# the full test suite. Mirrors the local workflow in README.md.
#
# MGS_SANITIZE=ON reruns the same pipeline in a separate build directory
# with AddressSanitizer + UndefinedBehaviorSanitizer (-DMGS_SANITIZE=ON);
# MGS_SANITIZE=thread does the same with ThreadSanitizer.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SANITIZE=${MGS_SANITIZE:-OFF}
if [[ "$SANITIZE" == thread ]]; then
  BUILD_DIR=${BUILD_DIR}-tsan
  EXTRA_FLAGS=(-DMGS_SANITIZE=thread)
  # Any data race fails the run at its first report.
  export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}
elif [[ "$SANITIZE" == ON* || "$SANITIZE" == on* || "$SANITIZE" == 1 ]]; then
  BUILD_DIR=${BUILD_DIR}-asan
  EXTRA_FLAGS=(-DMGS_SANITIZE=ON)
  # Sanitized runs: surface every finding, keep UBSan prints readable.
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
else
  EXTRA_FLAGS=()
fi

if command -v ninja >/dev/null 2>&1; then
  cmake -B "$BUILD_DIR" -S . -G Ninja \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" "${EXTRA_FLAGS[@]}"
  # ninja: -k 0 = keep going past failures, report them all at the end.
  cmake --build "$BUILD_DIR" -j -- -k 0
else
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" "${EXTRA_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j -- -k
fi

# Every test runs once, here. The labels (dtype, chaos, pipeline, faults)
# select groups for local runs, e.g. `ctest --test-dir build -L chaos`.
# The chaos smoke (tool_mgs_chaos_smoke, a seeded 100-scenario campaign)
# shrinks each violation to a one-line repro under
# $BUILD_DIR/tools/chaos_repro/, which the workflow uploads on failure --
# replay locally with ./$BUILD_DIR/tools/mgs_chaos --replay "<line>".
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Sample observability artifacts (uploaded by the GitHub Actions
# workflow): a traced 4-GPU Scan-MPS run-report + Perfetto trace +
# Prometheus metrics, rendered once to prove the loader works.
"$BUILD_DIR"/tools/mgs_trace --demo --out "$BUILD_DIR/obs_sample"

# Bench smoke: trace one representative Scan-MPS run per gated (dtype,
# op) cell (simulated time is deterministic) and gate each modeled
# makespan against its committed per-configuration baseline
# (BENCH_baseline.json for i32/plus, BENCH_baseline_<dtype>_<op>.json
# otherwise; mgs_perf gate picks the right file). The microbenchmark
# sweep itself is skipped via the filter -- only the traced run-reports
# matter here. Every run also appends a labeled point to the
# bench_results/history.ndjson longitudinal store; on a >5% regression
# the gate prints the top-10 ranked attribution table and writes the
# diff JSON for artifact upload.
HISTORY_LABEL=${HISTORY_LABEL:-$(git rev-parse --short HEAD 2>/dev/null || echo local)}
for cfg in "i32 plus" "f64 max" "i64 min"; do
  read -r DT OP <<<"$cfg"
  SUFFIX=""
  [[ "$DT/$OP" != "i32/plus" ]] && SUFFIX="_${DT}_${OP}"
  "$BUILD_DIR"/bench/bench_micro --dtype "$DT" --op "$OP" \
    --trace "bench_results/bench_micro_run_report${SUFFIX}.json" \
    --history-label "$HISTORY_LABEL" \
    --benchmark_filter='^$'
  "$BUILD_DIR"/tools/mgs_perf gate \
    "bench_results/bench_micro_run_report${SUFFIX}.json" \
    --json "$BUILD_DIR/bench_diff${SUFFIX}.json"
done

# Longitudinal history: show the per-key summaries and the latest movers
# (informational -- the gates are mgs_perf gate above and trend below).
"$BUILD_DIR"/tools/mgs_perf history show --file bench_results/history.ndjson
"$BUILD_DIR"/tools/mgs_perf history top --file bench_results/history.ndjson

# Cross-commit trend gate + dashboard over the chained store (the CI
# workflow restores the previous history.ndjson before this script runs
# and re-uploads the merged store after). trend exits non-zero when any
# key has an unacknowledged regression change-point; sign off intentional
# steps by listing their sha in bench_results/history_ack.txt.
"$BUILD_DIR"/tools/mgs_perf history compact --file bench_results/history.ndjson
"$BUILD_DIR"/tools/mgs_perf trend --file bench_results/history.ndjson \
  --json bench_results/trend.json
"$BUILD_DIR"/tools/mgs_perf dashboard --file bench_results/history.ndjson \
  --out bench_results/dashboard.html

# Gate self-test: seed a deliberate straggler (device 1 running 8x slow)
# into the traced run and assert the gate both FAILS and prints the
# attribution table pointing at the injected slowdown. Guards the
# regression path itself -- a gate that silently passes a 8x straggler
# is worse than no gate.
# --history-label none: a deliberately broken run must not land on the
# chained timeline the trend gate below watches.
"$BUILD_DIR"/bench/bench_micro \
  --faults "straggler:dev=1,factor=8" \
  --trace "$BUILD_DIR/bench_micro_straggler.json" \
  --out "$BUILD_DIR/bench_micro_straggler_results.json" \
  --history-label none \
  --benchmark_filter='^$'
if "$BUILD_DIR"/tools/mgs_perf gate "$BUILD_DIR/bench_micro_straggler.json" \
    --json "$BUILD_DIR/bench_diff_straggler.json" \
    | tee "$BUILD_DIR/gate_straggler.log"; then
  echo "ci: ERROR - mgs_perf gate passed a seeded 8x straggler" >&2
  exit 1
fi
grep -q "top attribution" "$BUILD_DIR/gate_straggler.log" || {
  echo "ci: ERROR - mgs_perf gate failed without printing attribution" >&2
  exit 1
}
echo "ci: gate self-test OK (seeded straggler caught and attributed)"

# Trend-gate self-test: build a synthetic chained store -- the same
# healthy report under three fake shas (simulated time is deterministic,
# so the series is flat) must pass with no change-point; appending the
# 8x-straggler report under a fourth fake sha must trip the gate, name
# that sha as the first offending label, and mark it on the dashboard.
TREND_HIST="$BUILD_DIR/trend_selftest.ndjson"
rm -f "$TREND_HIST"
for FAKE in aaaa111 bbbb222 cccc333; do
  "$BUILD_DIR"/tools/mgs_perf history append \
    --report bench_results/bench_micro_run_report.json \
    --label "$FAKE" --file "$TREND_HIST"
done
"$BUILD_DIR"/tools/mgs_perf trend --file "$TREND_HIST" || {
  echo "ci: ERROR - trend flagged a change-point on a flat 3-label chain" >&2
  exit 1
}
"$BUILD_DIR"/tools/mgs_perf history append \
  --report "$BUILD_DIR/bench_micro_straggler.json" \
  --label badc0de --file "$TREND_HIST"
if "$BUILD_DIR"/tools/mgs_perf trend --file "$TREND_HIST" \
    | tee "$BUILD_DIR/trend_selftest.log"; then
  echo "ci: ERROR - trend passed a seeded 8x regression step" >&2
  exit 1
fi
grep -q "badc0de" "$BUILD_DIR/trend_selftest.log" || {
  echo "ci: ERROR - trend failed without naming the offending sha" >&2
  exit 1
}
"$BUILD_DIR"/tools/mgs_perf dashboard --file "$TREND_HIST" \
  --out "$BUILD_DIR/trend_selftest_dashboard.html"
grep -q "badc0de" "$BUILD_DIR/trend_selftest_dashboard.html" || {
  echo "ci: ERROR - dashboard does not mark the offending sha" >&2
  exit 1
}
# Acknowledging the sha must clear the gate (the sign-off workflow).
"$BUILD_DIR"/tools/mgs_perf trend --file "$TREND_HIST" --ack badc0de || {
  echo "ci: ERROR - acknowledged change-point still trips the gate" >&2
  exit 1
}
echo "ci: trend self-test OK (flat chain clean, seeded step caught at badc0de)"
