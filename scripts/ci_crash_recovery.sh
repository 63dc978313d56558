#!/usr/bin/env bash
# Kill-and-recover smoke test of the adrecd durability path: boots the
# daemon with a WAL, streams ingest over the real wire, SIGKILLs it
# mid-stream (no drain, no goodbye), verifies the log with `adrec_tool
# wal verify`, restarts the daemon on the same log directory and checks
# the recovered state serves. Runs the loop twice: once recovering from
# the log alone, once through an explicit `checkpoint` + tail replay —
# and all of that twice more with one log stream feeding two shards
# (--shards=2 --workers=1).
#
# Two more phases cover the incremental-durability paths: a kill landing
# inside a delta checkpoint save (staging wreckage left in
# checkpoint.delta/ and checkpoint.tmp/ must be ignored, the intact
# chain recovered), and a kill landing inside a compaction swap (the
# .clog outputs renamed in but the superseded .log inputs not yet
# unlinked, plus a stray .clog.tmp — restart must detect the stale
# inputs, sweep them, and serve the identical state).
#
#   ci_crash_recovery.sh <path-to-adrecd> <path-to-adrec_client> <path-to-adrec_tool>
#
# Registered as a tier1 ctest (see tests/CMakeLists.txt); the in-process
# equivalents (serve_wal_test, wal_crash_differential_test) prove
# bit-exactness, this proves the shipped binaries wire it all together.
set -euo pipefail

ADRECD="${1:?usage: ci_crash_recovery.sh <adrecd> <adrec_client> <adrec_tool>}"
CLIENT="${2:?usage: ci_crash_recovery.sh <adrecd> <adrec_client> <adrec_tool>}"
TOOL="${3:?usage: ci_crash_recovery.sh <adrecd> <adrec_client> <adrec_tool>}"

LOG="$(mktemp)"
WAL_DIR="$(mktemp -d)"
DAEMON_PID=""
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; rm -rf "$LOG" "$WAL_DIR"' EXIT

start_daemon() {  # start_daemon [extra adrecd flags...]
  : >"$LOG"
  "$ADRECD" --port=0 --wal-dir="$WAL_DIR" --wal-sync=group "$@" >"$LOG" 2>&1 &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/^adrecd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$LOG"; echo "FAIL: daemon died during startup"; exit 1; }
    sleep 0.2
  done
  [ -n "$PORT" ] || { cat "$LOG"; echo "FAIL: no listening line"; exit 1; }
}

expect() {  # expect <want-substring> <verb> [args...]
  local want="$1"; shift
  local got
  got="$("$CLIENT" 127.0.0.1 "$PORT" "$@")" || true
  case "$got" in
    *"$want"*) ;;
    *) echo "FAIL: '$*' returned '$got', wanted '$want'"; cat "$LOG"; exit 1 ;;
  esac
}

ingest() {  # ingest <count> <time-base>
  local n="$1" base="$2" i
  for i in $(seq 1 "$n"); do
    expect "OK" tweet "$((i % 7))" "$((base + i * 60))" "coffee and live music downtown $i"
    expect "OK" checkin "$((i % 7))" "$((base + i * 60 + 30))" "$((i % 5))"
  done
}

# SHAPE is word-split on purpose: empty, or two flags.
for SHAPE in "" "--shards=2 --workers=1"; do
for ROUND in log-only checkpointed; do
  echo "crash-recovery: round $ROUND ${SHAPE:-(one shard)}"
  rm -rf "$WAL_DIR"; mkdir -p "$WAL_DIR"
  # shellcheck disable=SC2086
  start_daemon $SHAPE

  expect "OK" adput 1 100 0 1.5 "" "" "coffee and music deals"
  expect "OK" adput 2 100 0 1.2 "" "" "late night food trucks"
  ingest 10 86400
  if [ "$ROUND" = checkpointed ]; then
    expect "OK" checkpoint
    [ -f "$WAL_DIR/checkpoint/MANIFEST.tsv" ] || { echo "FAIL: no checkpoint manifest"; exit 1; }
  fi
  ingest 5 88400

  # The crash: SIGKILL, mid-stream, no drain. Group commit has acked
  # every reply above, so nothing acknowledged may be lost.
  kill -9 "$DAEMON_PID"
  wait "$DAEMON_PID" 2>/dev/null || true

  "$TOOL" wal verify "$WAL_DIR" >/dev/null || { echo "FAIL: wal verify after SIGKILL"; exit 1; }
  "$TOOL" wal inspect "$WAL_DIR" >/dev/null || { echo "FAIL: wal inspect"; exit 1; }
  # 2 adputs + 15 tweets + 15 checkins, every one acknowledged pre-kill.
  DUMPED="$("$TOOL" wal dump "$WAL_DIR" | wc -l)"
  [ "$DUMPED" -eq 32 ] || { echo "FAIL: dumped $DUMPED records, wanted 32"; exit 1; }

  # shellcheck disable=SC2086
  start_daemon $SHAPE
  grep -q "adrecd recovered from" "$LOG" || { cat "$LOG"; echo "FAIL: no recovery line"; exit 1; }
  if [ "$ROUND" = checkpointed ]; then
    grep -q "checkpoint_seqno=22" "$LOG" || { cat "$LOG"; echo "FAIL: wrong checkpoint seqno"; exit 1; }
  else
    grep -q "live_replayed=32" "$LOG" || { cat "$LOG"; echo "FAIL: wrong replay count"; exit 1; }
  fi

  # The recovered daemon serves: state is back (tweets counted per era),
  # queries work, and ingest continues on contiguous seqnos.
  expect "PONG" ping
  expect "ADS" topk 1 3
  expect "OK" tweet 1 90000 "one more after recovery"
  expect "STAT" stats
  kill -TERM "$DAEMON_PID"
  wait "$DAEMON_PID" || { echo "FAIL: drain exit after recovery"; exit 1; }
  "$TOOL" wal verify "$WAL_DIR" >/dev/null || { echo "FAIL: wal verify after drain"; exit 1; }
done
done

echo "crash-recovery: round kill-during-checkpoint-save"
rm -rf "$WAL_DIR"; mkdir -p "$WAL_DIR"
start_daemon --checkpoint-mode=delta
expect "OK" adput 1 100 0 1.5 "" "" "coffee and music deals"
expect "OK" adput 2 100 0 1.2 "" "" "late night food trucks"
ingest 10 86400
expect "OK" checkpoint        # gen 1: the rebase
ingest 5 88400
expect "OK" checkpoint        # gen 2: a delta riding on gen 1
[ -f "$WAL_DIR/checkpoint.delta/CURRENT" ] || { echo "FAIL: no delta CURRENT"; exit 1; }
ingest 5 90400

# The crash lands inside the NEXT save: SIGKILL, then the wreckage a
# death between staging and publish leaves behind — a torn delta staging
# generation and a torn classic checkpoint.tmp. Neither is published, so
# recovery must ignore both and use the intact gen-2 head.
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
STAGING="$WAL_DIR/checkpoint.delta/gen-00000000000000000099.tmp"
mkdir -p "$STAGING"
printf 'K 7 torn-mid-write' >"$STAGING/MANIFEST.tsv"
mkdir -p "$WAL_DIR/checkpoint.tmp/shard0"
printf 'half a snapshot' >"$WAL_DIR/checkpoint.tmp/shard0/snapshot_ads.tsv"

"$TOOL" wal verify "$WAL_DIR" >/dev/null || { echo "FAIL: wal verify after checkpoint-save kill"; exit 1; }
"$TOOL" checkpoint inspect "$WAL_DIR" >/dev/null || { echo "FAIL: checkpoint inspect"; exit 1; }
start_daemon --checkpoint-mode=delta
grep -q "adrecd recovered from delta-checkpoint+wal" "$LOG" \
  || { cat "$LOG"; echo "FAIL: recovery did not use the delta chain"; exit 1; }
expect "PONG" ping
expect "ADS" topk 1 3
expect "OK" tweet 1 92000 "one more after the checkpoint-save kill"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: drain exit after checkpoint-save kill"; exit 1; }

echo "crash-recovery: round kill-during-compaction-swap"
# Reuse the log above. Snapshot the directory, compact the original,
# then rebuild the exact mid-swap state in the snapshot: every .clog
# output renamed in, every superseded .log input still present, plus a
# stray .clog.tmp from the torn staging write.
PRE_DIR="$(mktemp -d)"
cp -r "$WAL_DIR/." "$PRE_DIR/"
"$TOOL" wal compact "$WAL_DIR" >/dev/null || { echo "FAIL: wal compact"; exit 1; }
CLOGS="$(find "$WAL_DIR" -maxdepth 1 -name '*.clog' | wc -l)"
[ "$CLOGS" -ge 1 ] || { echo "FAIL: compaction produced no .clog output"; exit 1; }
find "$WAL_DIR" -maxdepth 1 -name '*.clog' -exec cp {} "$PRE_DIR/" \;
printf 'torn compaction staging' >"$PRE_DIR/wal-00000000000000000999.clog.tmp"
rm -rf "$WAL_DIR"; mv "$PRE_DIR" "$WAL_DIR"

"$TOOL" wal verify "$WAL_DIR" >/dev/null || { echo "FAIL: wal verify after compaction-swap kill"; exit 1; }
start_daemon --checkpoint-mode=delta
grep -q "adrecd recovered from delta-checkpoint+wal" "$LOG" \
  || { cat "$LOG"; echo "FAIL: recovery over half-swapped log"; exit 1; }
expect "PONG" ping
expect "ADS" topk 1 3
expect "OK" tweet 1 94000 "one more after the compaction-swap kill"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "FAIL: drain exit after compaction-swap kill"; exit 1; }
# The stale inputs and staging leftovers must be gone after the restart.
STALE="$(find "$WAL_DIR" -maxdepth 1 -name '*.clog.tmp' | wc -l)"
[ "$STALE" -eq 0 ] || { echo "FAIL: $STALE stray .clog.tmp left behind"; exit 1; }
"$TOOL" wal verify "$WAL_DIR" >/dev/null || { echo "FAIL: wal verify after sweep"; exit 1; }

echo "crash-recovery: all checks passed"
