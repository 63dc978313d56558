#!/usr/bin/env bash
# Benchmark regression gate: runs the quick modes of bench_wal,
# bench_serve, bench_trace, and bench_cache, then diffs their timer p95s
# against the checked-in baselines in bench/baselines/ with
# scripts/bench_diff.py. A timer that regresses beyond the threshold
# fails the gate. bench_trace additionally self-gates: it exits non-zero
# if the traced topk p95 exceeds the untraced one by more than 2%.
# bench_cache self-gates too: cached hit ratio must exceed 80% at
# skew >= 0.99 and the cached topk p95 must stay within 1.25x of the
# uncached skew-0 p95. bench_pool self-gates the multi-core scaling curve
# (E24): >=1.6x at 2 workers and >=2.5x at 4 workers over the
# single-threaded daemon when the host has that many cores, degrading
# to a non-collapse bound (>=0.3x) on smaller machines. bench_checkpoint
# self-gates the durability bars (E25): the delta save pause must stay
# <=0.25x of a full save at the largest benched size, and recovery from
# a rebase + chained deltas + compacted tail must stay <=1.25x of
# recovery from a single full checkpoint.
#
#   scripts/ci_bench_gate.sh [--update-baseline] [build-dir]
#
#   --update-baseline  rewrite bench/baselines/*.json from this run
#                      instead of gating (do this on the reference
#                      machine after an intentional perf change).
#   build-dir          where the bench binaries live (default: build)
#
# The threshold defaults to 50% — quick modes are short (seconds, not
# minutes) and shared-CI neighbours are noisy, so the gate is tuned to
# catch order-of-magnitude mistakes (an accidental fsync per record, a
# quadratic scan), not single-digit drift. Override with
# ADREC_BENCH_THRESHOLD. Deliberately NOT registered as a ctest: p95s
# under sanitizer builds or loaded runners would flake the tier1 gate.
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
if [ "${1:-}" = "--update-baseline" ]; then
  UPDATE=1
  shift
fi
BUILD_DIR="${1:-build}"
BASELINE_DIR="bench/baselines"
THRESHOLD="${ADREC_BENCH_THRESHOLD:-0.50}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Quick modes: small enough to finish in seconds, large enough that the
# hot timers clear bench_diff's --min-count sample floor.
BENCHES="bench_wal bench_serve bench_trace bench_cache bench_pool bench_checkpoint"
args_for() {
  case "$1" in
    bench_wal)      echo "5000" ;;        # max_events
    bench_serve)    echo "4 200" ;;       # connections commands-per-conn
    bench_trace)    echo "2000 5" ;;      # queries-per-round rounds
    bench_cache)    echo "20000 0 0.99 --users=1000" ;;  # ops skews...
    bench_pool)     echo "6000 8" ;;      # ops connections
    bench_checkpoint) echo "6000 200" ;;  # events churn-events
  esac
}

FAILED=0
for bench in $BENCHES; do
  bin="$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "FAIL: $bin not built (cmake --build $BUILD_DIR --target $bench)"; exit 2; }
  log="$TMP/$bench.log"
  # shellcheck disable=SC2046  # args_for output is intentionally split
  echo "== $bench $(args_for "$bench")"
  "$bin" $(args_for "$bench") >"$log" 2>&1 \
    || { cat "$log"; echo "FAIL: $bench exited non-zero"; exit 2; }

  # The baseline blob is the metrics JSON alone, not the whole log —
  # stable to diff in review and immune to incidental output changes.
  metrics="$(sed -n 's/^BENCH_METRICS_JSON //p' "$log" | tail -n 1)"
  [ -n "$metrics" ] || { cat "$log"; echo "FAIL: $bench emitted no BENCH_METRICS_JSON"; exit 2; }

  baseline="$BASELINE_DIR/$bench.json"
  if [ "$UPDATE" -eq 1 ]; then
    mkdir -p "$BASELINE_DIR"
    printf '%s\n' "$metrics" >"$baseline"
    echo "updated $baseline"
    continue
  fi

  [ -f "$baseline" ] || { echo "FAIL: no baseline $baseline (run $0 --update-baseline)"; exit 2; }
  printf '%s\n' "$metrics" >"$TMP/$bench.candidate.json"
  if ! python3 scripts/bench_diff.py "$baseline" "$TMP/$bench.candidate.json" \
         --threshold "$THRESHOLD"; then
    FAILED=1
  fi
done

if [ "$UPDATE" -eq 1 ]; then
  echo "bench gate: baselines updated"
  exit 0
fi
if [ "$FAILED" -ne 0 ]; then
  echo "bench gate: FAILED (threshold $THRESHOLD)"
  exit 1
fi
echo "bench gate: passed (threshold $THRESHOLD)"
