#!/usr/bin/env bash
# Sanitizer gates.
#
#   tsan  — ThreadSanitizer over the concurrency-sensitive subset: the obs
#           metric registry, the logging globals, histogram merge, the
#           sharded engine (shard-parallel RunAnalysis + merged stats),
#           the serve daemon (event loop vs. client threads, self-pipe
#           drain, periodic reporter), the WAL writer (group commit,
#           concurrent appenders batching one fdatasync), and the
#           replication pair (leader and follower event loops streaming
#           over a real socket, promotion under client traffic), the
#           trace flight recorder (seqlock ring under concurrent
#           writers/readers, collector Finish from many threads, traced
#           daemon requests end to end), and the topk result cache
#           (cached daemons under client traffic, the follower's
#           apply-observer invalidation hook, and the 20-seed
#           cached≡uncached differential across restarts and
#           replication), and the multi-core worker
#           pool (acceptor handing sockets to event-loop workers over
#           SPSC mailboxes, cross-worker stats/trace merge, per-shard
#           WAL streams with group commit, and the per-stream repl
#           handshake), and the incremental-durability subsystem (delta
#           checkpoint saves with shard-parallel serialization, sealed-
#           segment compaction racing appends, checkpoint load
#           rejection, and the 20-seed delta≡full≡reference crash
#           differential with kill-points inside saves and swaps).
#   asan  — AddressSanitizer over the full suite minus the `fuzz` label
#           (the high-volume testkit differential sweeps; instrumented
#           builds run them ~10x slower for no extra memory-bug coverage —
#           the same code paths are exercised by the tier1 tests).
#   ubsan — UndefinedBehaviorSanitizer, same scope as asan, with
#           halt_on_error so a UB report actually fails the gate.
#   all   — tsan + asan + ubsan in sequence.
#
# Usage: scripts/ci_sanitize.sh [tsan|asan|ubsan|all] [build-dir]
#        (default: tsan, build dir build-<mode>)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-tsan}"
JOBS="$(nproc)"

run_tsan() {
  local build_dir="${1:-build-tsan}"
  local tsan_tests='obs_registry_test|obs_trace_test|core_engine_stats_test|core_sharded_test|common_histogram_test|feed_replayer_test|serve_daemon_test|serve_reporter_test|serve_trace_test|wal_log_test|serve_wal_test|serve_replica_test|serve_cache_test|cache_differential_test|serve_pool_test|wal_delta_checkpoint_test|wal_compact_test|wal_checkpoint_load_test|wal_delta_differential_test'
  cmake -B "${build_dir}" -S . \
    -DADREC_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${JOBS}" --target \
    obs_registry_test obs_trace_test core_engine_stats_test \
    core_sharded_test common_histogram_test feed_replayer_test \
    serve_daemon_test serve_reporter_test serve_trace_test \
    wal_log_test serve_wal_test serve_replica_test \
    serve_cache_test cache_differential_test \
    serve_pool_test wal_delta_checkpoint_test wal_compact_test \
    wal_checkpoint_load_test wal_delta_differential_test
  ctest --test-dir "${build_dir}" -R "${tsan_tests}" \
    --output-on-failure -j "${JOBS}"
  echo "TSan gate passed."
}

run_asan() {
  local build_dir="${1:-build-asan}"
  cmake -B "${build_dir}" -S . \
    -DADREC_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${JOBS}"
  ASAN_OPTIONS="detect_stack_use_after_return=1" \
    ctest --test-dir "${build_dir}" -LE fuzz --output-on-failure -j "${JOBS}"
  echo "ASan gate passed."
}

run_ubsan() {
  local build_dir="${1:-build-ubsan}"
  cmake -B "${build_dir}" -S . \
    -DADREC_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${JOBS}"
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "${build_dir}" -LE fuzz --output-on-failure -j "${JOBS}"
  echo "UBSan gate passed."
}

case "${MODE}" in
  tsan)  run_tsan  "${2:-build-tsan}" ;;
  asan)  run_asan  "${2:-build-asan}" ;;
  ubsan) run_ubsan "${2:-build-ubsan}" ;;
  all)
    run_tsan
    run_asan
    run_ubsan
    echo "All sanitizer gates passed."
    ;;
  *)
    echo "usage: $0 [tsan|asan|ubsan|all] [build-dir]" >&2
    exit 2
    ;;
esac
