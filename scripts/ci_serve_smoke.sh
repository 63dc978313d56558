#!/usr/bin/env bash
# End-to-end smoke test of the adrecd daemon through the CLI client:
# boots the daemon on an ephemeral port, exercises one command of every
# class over the real wire, and verifies a graceful SIGTERM drain.
#
#   ci_serve_smoke.sh <path-to-adrecd> <path-to-adrec_client>
#
# Registered as a tier1 ctest (see tests/CMakeLists.txt), so the default
# gate covers the daemon binary itself, not just the serve library.
#
# Phase 2 reboots the daemon multi-core (--workers=2 --wal-shards=2,
# DESIGN.md §16): live ads counted once across shards, ad ops outside
# the stop-the-world barrier, the shard-lock wait counter, worker-tagged
# conns output, the checkpointer in the pool's stats, the pool's window
# reporter, per-shard WAL stream directories on disk, and a restart that
# replays both streams.
#
# Phase 3 checks that malformed or out-of-range numeric flags, and the
# flag combinations the server refuses, exit 2.
#
# Phase 4 exhausts the daemon's descriptors (ulimit -n 24, about 40
# connections) at --workers=1 and at --shards=2 --workers=2: accepts
# must back off instead of spinning — idle CPU stays low, few `accept`
# warnings are logged — and a connection opened earlier is still served.
set -euo pipefail

ADRECD="${1:?usage: ci_serve_smoke.sh <adrecd> <adrec_client>}"
CLIENT="${2:?usage: ci_serve_smoke.sh <adrecd> <adrec_client>}"

LOG="$(mktemp)"
WALDIR="$(mktemp -d)"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -f "$LOG"; rm -rf "$WALDIR"' EXIT

# --port=0 binds an ephemeral port; parse it from the listening line.
# --trace-sample=1 keeps every completed trace so the flight-recorder
# checks below see the topk request regardless of request count.
"$ADRECD" --port=0 --report-interval=1 --trace-sample=1 >"$LOG" 2>&1 &
DAEMON_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^adrecd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$LOG"; echo "FAIL: daemon died during startup"; exit 1; }
  sleep 0.2
done
[ -n "$PORT" ] && echo "smoke: daemon up on port $PORT" || { cat "$LOG"; echo "FAIL: no listening line"; exit 1; }

expect() {  # expect <want-substring> <verb> [args...]
  local want="$1"; shift
  local got
  got="$("$CLIENT" 127.0.0.1 "$PORT" "$@")" || true
  case "$got" in
    *"$want"*) echo "smoke: $* -> ok" ;;
    *) echo "FAIL: '$*' returned '$got', wanted '$want'"; exit 1 ;;
  esac
}

expect "PONG" ping
expect "OK" tweet 4 86400 "coffee and live music downtown"
expect "OK" checkin 4 86500 7
expect "OK" adput 1 100 50 1.5 "" "" "coffee and music deals"
expect "ADS" topk 4 3
expect "OK" analyze 0.45
expect "USERS" match 1
expect "STAT engine.tweets 1" stats
expect "adrec_serve_cmd_topk" metrics
expect "adrec_engine_tweets_total 1" metrics
expect "CLIENT_ERROR" frobnicate

# Observability surface: the topk above must have left a trace in the
# flight recorder covering serve -> engine, and the Chrome export must
# be loadable JSON.
expect "TRACE" trace
expect "serve.dispatch" trace
expect "engine.topk" trace
expect "traceEvents" trace chrome
expect "SLOW" slow
expect "CONN" conns
# One worker is a server with one lane: its id is 1, as at any count.
expect "worker=1 " conns
expect "adrec_trace_traces_started_total" metrics

expect "OK" addel 1
expect "NOT_FOUND" addel 1

# Parse-or-reject: a malformed payload must not take the daemon down.
expect "CLIENT_ERROR" topk 4 0
kill -0 "$DAEMON_PID" || { echo "FAIL: daemon died on bad input"; exit 1; }

# Graceful drain: SIGTERM must exit 0 after flushing.
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
[ "$RC" -eq 0 ] || { cat "$LOG"; echo "FAIL: drain exit code $RC"; exit 1; }
grep -q "drained" "$LOG" || { cat "$LOG"; echo "FAIL: no drain log line"; exit 1; }

# --- Phase 2: multi-core daemon with per-shard WAL streams. ---

boot() {  # boot [extra adrecd flags...]
  : >"$LOG"
  "$ADRECD" --port=0 --shards=2 --workers=2 \
    --wal-dir="$WALDIR/wal" --wal-shards=2 --report-interval=1 \
    "$@" >"$LOG" 2>&1 &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/^adrecd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$LOG"; echo "FAIL: pool daemon died during startup"; exit 1; }
    sleep 0.2
  done
  [ -n "$PORT" ] || { cat "$LOG"; echo "FAIL: pool daemon printed no listening line"; exit 1; }
}

drain() {
  kill -TERM "$DAEMON_PID"
  local rc=0
  wait "$DAEMON_PID" || rc=$?
  [ "$rc" -eq 0 ] || { cat "$LOG"; echo "FAIL: pool drain exit code $rc"; exit 1; }
}

boot
echo "smoke: pool daemon up on port $PORT (2 workers, 2 WAL streams)"
expect "PONG" ping
# Users 3 and 4 hash to different shards under the 2-shard split, so
# both WAL streams see traffic.
expect "OK" tweet 3 86400 "coffee and live music downtown"
expect "OK" tweet 4 86401 "rooftop jazz tonight"
expect "OK" adput 9 100 50 1.5 "" "" "coffee and music deals"
# One `stats` reply, several checks: both shards index the ad and the
# gauge counts live ads, once; the adput ran in place under the shard
# locks, so the only barrier verb so far is this stats call itself; the
# shard-lock wait counter is exported.
STATS="$("$CLIENT" 127.0.0.1 "$PORT" stats)" || true
for want in "STAT index.ads 1" "STAT serve.pool_barrier_ops 1" \
            "STAT pool.shard_lock_waits "; do
  case "$STATS" in
    *"$want"*) echo "smoke: stats has '$want' -> ok" ;;
    *) echo "FAIL: stats lacks '$want': $STATS"; exit 1 ;;
  esac
done
expect "ADS" topk 4 3
expect "STAT index.records_probed " stats
expect "STAT engine.tweets 2" stats
expect "worker=" conns
drain

# Durability landed as one log stream per shard.
for s in 0 1; do
  [ -d "$WALDIR/wal/$s" ] || { ls -R "$WALDIR/wal"; echo "FAIL: no WAL stream dir $s"; exit 1; }
done

# Parallel recovery: a fresh boot over the same log must replay both
# streams and answer from the recovered state.
boot
echo "smoke: pool daemon recovered on port $PORT"
expect "STAT engine.tweets 2" stats
expect "ADS" topk 3 3
# The pool's exposition carries the checkpointer, like --workers=1.
expect "OK" checkpoint
expect "STAT checkpoint.saves 1" stats
# The window reporter runs at two workers too (lane 0, inside a barrier).
for _ in $(seq 1 50); do
  grep -q "window " "$LOG" && break
  sleep 0.1
done
grep -q "window " "$LOG" || { cat "$LOG"; echo "FAIL: pool logged no report window"; exit 1; }
echo "smoke: pool reports windows and exports checkpoint.*"
drain
grep -q "drained" "$LOG" || { cat "$LOG"; echo "FAIL: no pool drain log line"; exit 1; }

# --- Phase 3: numeric flags parse strictly. ---

bad_flag() {  # bad_flag <flag-name> [adrecd flags...]
  local name="$1"; shift
  local rc=0 out
  out="$(timeout 10 "$ADRECD" --port=0 "$@" 2>&1)" || rc=$?
  [ "$rc" -eq 2 ] || { echo "$out"; echo "FAIL: adrecd $* exited $rc, wanted 2"; exit 1; }
  case "$out" in
    *"$name"*) echo "smoke: adrecd $* -> exit 2" ;;
    *) echo "$out"; echo "FAIL: adrecd $* did not name $name"; exit 1 ;;
  esac
}
bad_flag --shards --shards=-1
bad_flag --port --port=70000
bad_flag --shards --shards=two
bad_flag --follow --wal-dir="$WALDIR/follower" --follow=127.0.0.1:70000
# Combinations the server accepts only at one worker.
bad_flag --topk-cache --workers=2 --topk-cache=16
bad_flag --wal-shards --shards=2 --workers=2 --wal-dir="$WALDIR/one-stream" \
  --wal-shards=1

# --- Phase 4: accept backoff when descriptors run out. ---

# ticks <pid>: the process's user + system CPU time in clock ticks.
ticks() { awk '{print $14 + $15}' "/proc/$1/stat"; }

accept_backoff() {  # accept_backoff [extra adrecd flags...]
  : >"$LOG"
  # The subshell execs the daemon, so $! is the daemon's pid.
  ( ulimit -n 24; exec "$ADRECD" --port=0 "$@" ) >"$LOG" 2>&1 &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/^adrecd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$LOG"; echo "FAIL: daemon died during startup"; exit 1; }
    sleep 0.2
  done
  [ -n "$PORT" ] || { cat "$LOG"; echo "FAIL: no listening line"; exit 1; }
  local early line held=() fd i t0 t1 warnings
  exec {early}<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'ping\n' >&"$early"
  read -r -t 5 line <&"$early" || true
  [ "${line%$'\r'}" = "PONG" ] || { cat "$LOG"; echo "FAIL: early connection got '$line'"; exit 1; }
  # More connections than the daemon has descriptors: the kernel queues
  # the rest, and the listener stays readable while accept(2) fails.
  for i in $(seq 1 40); do
    exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"
    held+=("$fd")
  done
  sleep 0.3
  t0="$(ticks "$DAEMON_PID")"
  sleep 1.5
  t1="$(ticks "$DAEMON_PID")"
  warnings="$(grep -c 'accept: ' "$LOG" || true)"
  echo "smoke: $* EMFILE: $((t1 - t0)) CPU ticks in 1.5 s idle, $warnings accept warnings"
  [ $((t1 - t0)) -lt 25 ] || { echo "FAIL: $* spun on a full descriptor table ($((t1 - t0)) ticks)"; exit 1; }
  [ "$warnings" -gt 0 ] || { cat "$LOG"; echo "FAIL: $* never ran out of descriptors"; exit 1; }
  [ "$warnings" -lt 50 ] || { echo "FAIL: $* logged $warnings accept warnings"; exit 1; }
  printf 'ping\n' >&"$early"
  read -r -t 5 line <&"$early" || true
  [ "${line%$'\r'}" = "PONG" ] || { cat "$LOG"; echo "FAIL: $* early connection got '$line' under EMFILE"; exit 1; }
  for fd in "${held[@]}" "$early"; do exec {fd}>&-; done
  drain
}
accept_backoff --workers=1
accept_backoff --shards=2 --workers=2

echo "smoke: all serve checks passed"
