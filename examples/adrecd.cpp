// adrecd — the network serving daemon: an event-driven TCP front end
// (src/serve) over a sharded recommendation engine.
//
//   adrecd [--port=N] [--shards=N] [--workers=N] [--dir=DIR] [--alpha=A]
//          [--report-interval=SEC] [--max-connections=N]
//          [--idle-timeout=SEC] [--snapshot-root=DIR]
//          [--wal-dir=DIR] [--wal-shards=N]
//          [--wal-sync=none|interval|group]
//          [--checkpoint-interval=SEC] [--checkpoint-mode=full|delta]
//          [--checkpoint-rebase-every=N] [--compact-interval=SEC]
//          [--wal-retain=SEC]
//          [--wal-append-sample=N] [--follow=HOST:PORT]
//          [--trace-ring=N] [--trace-slow-ms=MS] [--trace-sample=N]
//          [--topk-cache=N] [--topk-cache-admission=always|frequency]
//
// The `snapshot` verb is disabled unless --snapshot-root names a base
// directory; client-supplied targets are then confined under it.
//
// With --wal-dir, every ingest verb is written ahead to a durable log
// (src/wal) before it executes, and startup runs crash recovery: the
// newest checkpoint under the log directory is restored and the log tail
// replayed (a torn final record is cut). --wal-sync picks the durability
// policy (default group: acked ingests are on disk, one fdatasync per
// event-loop batch). --checkpoint-interval takes periodic coordinated
// checkpoints (the `checkpoint` admin verb does one on demand);
// --wal-retain bounds how much replay history survives a checkpoint
// (default: keep everything — exact analysis-window recovery).
// --checkpoint-mode=delta switches to incremental delta-chain snapshots
// (DESIGN.md §17): each checkpoint writes only the shard snapshots whose
// content changed, bounding the save pause by churn rather than total
// state size; --checkpoint-rebase-every=N (default 8) forces a full
// rebase generation every N saves to bound the chain recovery resolves.
// --compact-interval=SEC periodically rewrites sealed WAL segments
// dropping superseded ad-inventory records (the `compact` admin verb
// does one on demand); segments a connected follower still needs are
// preserved.
//
// With --follow=HOST:PORT (requires --wal-dir), the daemon runs as a
// READ REPLICA of the adrecd at that address: it recovers its local log
// as usual, then streams the leader's WAL tail from where its own log
// ends, writing each record to its own log before applying it. Write
// verbs answer `READONLY`; queries serve from replicated state. The
// `promote` admin verb detaches from the leader, seals the local log and
// starts accepting writes (DESIGN.md §12).
//
// Request tracing (the flight recorder, DESIGN.md §13) is always on:
// every request gets a span tree (serve dispatch -> engine stages -> WAL
// commit wave; replica apply on a follower), retained tail-based —
// errors/sheds and requests slower than --trace-slow-ms (default 10) are
// pinned, the rest sampled 1-in---trace-sample (default 16) — in a
// --trace-ring-slot ring (default 512; 0 disables tracing). Inspect with
// the `trace` (TSV or Chrome JSON), `slow` and `conns` admin verbs, or
// `adrec_tool trace`. --wal-append-sample tunes the wal.append_us timer
// sampling rate (default 16, 0 off).
//
// --topk-cache=N turns on the stream-clock-invalidated topk result cache
// (DESIGN.md §14) with room for N entries (default 0 = off). Cached
// replies are byte-identical to recomputed ones: every ingest (local or
// replicated) evicts the entries it could influence, and hits revalidate
// and charge budgets/frequency caps through the engine. Eviction is LRU;
// --topk-cache-admission picks the fill gate (default `frequency`, a
// doorkeeper that admits a key under pressure only on repeat sighting;
// `always` admits everything). Watch cache.{hits,misses,invalidations,
// evictions} and cache.hit_ratio via the `metrics` verb.
//
// Multi-core serving (DESIGN.md §16): --workers=N (default = the shard
// count) runs one server with N event-loop lanes. Lane 0 runs on the
// main thread, polls the listener and deals connections round-robin,
// starting with itself; lanes 1..N-1 run on threads of their own. Every
// lane executes feed and ad ops in place under per-shard locks, and the
// rare admin verbs stop every lane. --workers=1 is the same server with
// one lane. With a WAL, more than one worker requires --wal-shards
// equal to --shards so the lanes commit, checkpoint and recover one log
// stream per shard (wal/<shard>/wal-<seqno>.log); --wal-shards also
// works with --workers=1 (parallel recovery, per-stream replication)
// and defaults to 1 (the flat single-stream layout). A log directory
// written with another --wal-shards is refused at startup, not misread.
// --topk-cache is incompatible with --workers>1. With --follow, the
// daemon runs one replication stream per log stream
// (`repl <stream> <streams> <cursor>`), each polled by lane
// `stream % N` and, with more than one lane, applied under that
// stream's shard lock; a leader with another stream count refuses it.
//
// Numeric flags must be whole numbers of their type and in range
// (counts at most 4096, ports at most 65535); anything else exits 2
// naming the flag.
//
// With --dir, the knowledge base is loaded from DIR/kb.tsv and, when
// present, DIR/ads.tsv and DIR/trace.tsv are preloaded into the engine
// (so the daemon starts warm). Without --dir, a synthetic case-study
// knowledge base is generated — enough to serve the wire protocol
// end-to-end with no files on disk.
//
// Prints `adrecd listening on <host>:<port>` once ready (the smoke test
// and the bench harness parse this line), then serves until SIGTERM or
// SIGINT, which trigger a graceful drain: stop accepting, flush pending
// responses, exit 0.

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "annotate/kb_io.h"
#include "core/sharded_engine.h"
#include "obs/trace.h"
#include "feed/trace_io.h"
#include "feed/workload.h"
#include "replica/follower.h"
#include "serve/server.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace {

adrec::serve::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// Parses `v` into *out: it must parse whole as T (an integer or a
/// floating type) and lie in [lo, hi]. A bad value prints the flag's
/// name and sets *bad (main then exits 2).
template <typename T>
void NumValue(const char* name, const char* v, double lo, double hi,
              T* out, bool* bad) {
  char* end = nullptr;
  errno = 0;
  double x = 0.0;
  if constexpr (std::is_integral_v<T>) {
    const long long n = std::strtoll(v, &end, 10);
    *out = static_cast<T>(n);
    x = static_cast<double>(n);
  } else {
    x = std::strtod(v, &end);
    *out = static_cast<T>(x);
  }
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(x) ||
      x < lo || x > hi) {
    std::fprintf(stderr, "%s: '%s' is not %s in [%g, %g]\n", name, v,
                 std::is_integral_v<T> ? "an integer" : "a number", lo, hi);
    *bad = true;
  }
}

/// Matches `--name=<value>` and parses <value> with NumValue.
template <typename T>
bool NumFlag(const char* arg, const char* name, double lo, double hi,
             T* out, bool* bad) {
  const char* v = nullptr;
  if (!FlagValue(arg, name, &v)) return false;
  NumValue(name, v, lo, hi, out, bad);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7311;
  size_t shards = 1;
  size_t workers = 0;  // 0 = default to the shard count
  size_t wal_shards = 1;
  std::string dir;
  double alpha = -1.0;
  std::string wal_dir;
  std::string follow;
  adrec::wal::WalOptions wal_opts;
  adrec::wal::CheckpointOptions ckpt_opts;
  adrec::serve::ServerOptions options;
  adrec::obs::TraceCollectorOptions trace_opts;

  // Counts are capped at kMaxCount; durations and sampling knobs keep
  // their meaning of negative and zero values (off / keep everything).
  constexpr double kMaxCount = 4096;
  constexpr double kMaxInt = std::numeric_limits<int>::max();
  constexpr double kMaxI64 = 9.2e18;  // just under INT64_MAX
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double slow_ms = trace_opts.slow_us / 1000.0;
  bool bad = false;
  for (int i = 1; i < argc && !bad; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if (NumFlag(a, "--port", 0, 65535, &port, &bad) ||
        NumFlag(a, "--shards", 0, kMaxCount, &shards, &bad) ||
        NumFlag(a, "--workers", 0, kMaxCount, &workers, &bad) ||
        NumFlag(a, "--wal-shards", 0, kMaxCount, &wal_shards, &bad) ||
        NumFlag(a, "--alpha", -kInf, 1.0, &alpha, &bad) ||
        NumFlag(a, "--report-interval", -kInf, kInf,
                &options.report_interval, &bad) ||
        NumFlag(a, "--max-connections", 0, kMaxInt,
                &options.max_connections, &bad) ||
        NumFlag(a, "--idle-timeout", -kMaxI64, kMaxI64,
                &options.idle_timeout, &bad) ||
        NumFlag(a, "--checkpoint-interval", -kInf, kInf,
                &options.checkpoint_interval, &bad) ||
        NumFlag(a, "--checkpoint-rebase-every", 0, kMaxI64,
                &ckpt_opts.rebase_every, &bad) ||
        NumFlag(a, "--compact-interval", -kInf, kInf,
                &options.compact_interval, &bad) ||
        NumFlag(a, "--wal-retain", -kMaxI64, kMaxI64,
                &ckpt_opts.analysis_retention, &bad) ||
        NumFlag(a, "--wal-append-sample", 0, kMaxI64,
                &wal_opts.append_sample_every, &bad) ||
        NumFlag(a, "--trace-ring", 0, kMaxInt, &trace_opts.ring_slots,
                &bad) ||
        NumFlag(a, "--trace-slow-ms", -kInf, kInf, &slow_ms, &bad) ||
        NumFlag(a, "--trace-sample", 0, kMaxI64, &trace_opts.sample_every,
                &bad) ||
        NumFlag(a, "--topk-cache", 0, kMaxI64, &options.topk_cache.capacity,
                &bad)) {
      continue;
    }
    if (FlagValue(a, "--dir", &v)) {
      dir = v;
    } else if (FlagValue(a, "--snapshot-root", &v)) {
      options.snapshot_root = v;
    } else if (FlagValue(a, "--wal-dir", &v)) {
      wal_dir = v;
    } else if (FlagValue(a, "--wal-sync", &v)) {
      auto policy = adrec::wal::ParseSyncPolicy(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "--wal-sync: %s\n",
                     policy.status().ToString().c_str());
        return 2;
      }
      wal_opts.sync = policy.value();
    } else if (FlagValue(a, "--checkpoint-mode", &v)) {
      auto mode = adrec::wal::ParseCheckpointMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "--checkpoint-mode: %s\n",
                     mode.status().ToString().c_str());
        return 2;
      }
      ckpt_opts.mode = mode.value();
    } else if (FlagValue(a, "--follow", &v)) {
      follow = v;
    } else if (FlagValue(a, "--topk-cache-admission", &v)) {
      if (std::strcmp(v, "always") == 0) {
        options.topk_cache.admission =
            adrec::cache::TopkCacheOptions::Admission::kAlways;
      } else if (std::strcmp(v, "frequency") == 0) {
        options.topk_cache.admission =
            adrec::cache::TopkCacheOptions::Admission::kFrequency;
      } else {
        std::fprintf(stderr,
                     "--topk-cache-admission: want always|frequency\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--shards=N] [--workers=N] "
                   "[--dir=DIR] "
                   "[--alpha=A] [--report-interval=SEC] "
                   "[--max-connections=N] [--idle-timeout=SEC] "
                   "[--snapshot-root=DIR] [--wal-dir=DIR] "
                   "[--wal-shards=N] "
                   "[--wal-sync=none|interval|group] "
                   "[--checkpoint-interval=SEC] "
                   "[--checkpoint-mode=full|delta] "
                   "[--checkpoint-rebase-every=N] "
                   "[--compact-interval=SEC] [--wal-retain=SEC] "
                   "[--wal-append-sample=N] [--follow=HOST:PORT] "
                   "[--trace-ring=N] [--trace-slow-ms=MS] "
                   "[--trace-sample=N] [--topk-cache=N] "
                   "[--topk-cache-admission=always|frequency]\n",
                   argv[0]);
      return 2;
    }
  }
  if (bad) return 2;
  trace_opts.slow_us = slow_ms * 1000.0;
  if (shards == 0) shards = 1;
  if (workers == 0) workers = shards;  // shard-affine by default
  if (wal_shards == 0) wal_shards = 1;
  if (wal_shards != 1 && wal_shards != shards) {
    std::fprintf(stderr,
                 "--wal-shards must be 1 (single stream) or equal "
                 "--shards (%zu), got %zu\n",
                 shards, wal_shards);
    return 2;
  }
  if (workers > 1 && !wal_dir.empty() && wal_shards != shards) {
    std::fprintf(stderr,
                 "--workers=%zu with a WAL requires --wal-shards=%zu "
                 "(one log stream per shard; a single shared stream "
                 "would serialise every worker's commit barrier)\n",
                 workers, shards);
    return 2;
  }
  if (workers > 1 && options.topk_cache.capacity > 0) {
    std::fprintf(stderr,
                 "--topk-cache is incompatible with --workers>1 (the "
                 "cache is invalidated by pool-wide ingest; see "
                 "DESIGN.md §14)\n");
    return 2;
  }
  wal_opts.shards = wal_shards;
  options.port = port;
  options.workers = workers;

  // The flight recorder: always on unless --trace-ring=0. The collector
  // outlives the server and the follower, both of which hold a pointer.
  adrec::obs::TraceCollector tracer(trace_opts);
  options.tracer = &tracer;

  adrec::replica::FollowerOptions follow_opts;
  if (!follow.empty()) {
    if (wal_dir.empty()) {
      std::fprintf(stderr,
                   "--follow requires --wal-dir (the follower logs every "
                   "replicated record before applying it)\n");
      return 2;
    }
    const size_t colon = follow.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == follow.size()) {
      std::fprintf(stderr, "--follow wants HOST:PORT, got '%s'\n",
                   follow.c_str());
      return 2;
    }
    follow_opts.host = follow.substr(0, colon);
    NumValue("--follow", follow.c_str() + colon + 1, 0, 65535,
             &follow_opts.port, &bad);
    if (bad) return 2;
  }

  // Knowledge base: from --dir when given, synthetic otherwise.
  std::shared_ptr<adrec::annotate::KnowledgeBase> kb;
  auto analyzer = std::make_shared<adrec::text::Analyzer>();
  if (!dir.empty()) {
    auto loaded =
        adrec::annotate::ReadKnowledgeBase(dir + "/kb.tsv", analyzer.get());
    if (!loaded.ok()) {
      std::fprintf(stderr, "kb: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    kb = std::shared_ptr<adrec::annotate::KnowledgeBase>(
        std::move(loaded).value().release());
  } else {
    adrec::feed::WorkloadOptions wopts = adrec::feed::CaseStudyOptions();
    wopts.days = 1;  // the KB does not depend on trace length
    adrec::feed::Workload workload = adrec::feed::GenerateWorkload(wopts);
    kb = workload.kb;
    analyzer = workload.analyzer;  // the KB tokenizes through it
  }

  adrec::core::EngineOptions engine_opts;
  if (alpha >= 0.0) engine_opts.alpha = alpha;
  adrec::core::ShardedEngine engine(
      kb, adrec::timeline::TimeSlotScheme::PaperScheme(), shards,
      engine_opts);

  // Warm start: preload the inventory and trace when the files exist.
  if (!dir.empty()) {
    if (std::filesystem::exists(dir + "/ads.tsv")) {
      auto ads = adrec::feed::ReadAds(dir + "/ads.tsv");
      if (!ads.ok()) {
        std::fprintf(stderr, "ads: %s\n", ads.status().ToString().c_str());
        return 1;
      }
      for (const auto& ad : ads.value()) {
        if (auto s = engine.InsertAd(ad); !s.ok()) {
          std::fprintf(stderr, "insert ad %u: %s\n", ad.id.value,
                       s.ToString().c_str());
          return 1;
        }
      }
      std::printf("adrecd preloaded %zu ads\n", ads.value().size());
    }
    if (std::filesystem::exists(dir + "/trace.tsv")) {
      auto trace = adrec::feed::ReadTrace(dir + "/trace.tsv");
      if (!trace.ok()) {
        std::fprintf(stderr, "trace: %s\n",
                     trace.status().ToString().c_str());
        return 1;
      }
      for (const auto& c : trace.value().check_ins) engine.OnCheckIn(c);
      for (const auto& t : trace.value().tweets) engine.OnTweet(t);
      std::printf("adrecd preloaded %zu tweets, %zu check-ins\n",
                  trace.value().tweets.size(),
                  trace.value().check_ins.size());
    }
  }

  // Durability: recover from the WAL (checkpoint + tail replay), then
  // open the writer at the first unused seqno. Recovery runs after the
  // warm preload, so a preloaded inventory that was also checkpointed or
  // logged re-applies idempotently (AlreadyExists is tolerated).
  std::unique_ptr<adrec::wal::CheckpointManager> checkpointer;
  std::unique_ptr<adrec::wal::ShardedWal> wal;
  adrec::Timestamp recovered_stream_time = 0;
  if (!wal_dir.empty()) {
    checkpointer =
        std::make_unique<adrec::wal::CheckpointManager>(wal_dir, ckpt_opts);
    // Recovery replays every stream, one thread per stream; a log written
    // with another --wal-shards is refused rather than misread.
    auto recovered = checkpointer->Recover(&engine, wal_shards);
    if (!recovered.ok()) {
      std::fprintf(stderr, "wal recover: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    const adrec::wal::RecoveryResult& r = recovered.value();
    std::printf(
        "adrecd recovered from %s: checkpoint_seqno=%llu next_seqno=%llu "
        "window_replayed=%zu live_replayed=%zu torn_bytes=%llu "
        "streams=%zu\n",
        r.from_delta ? "delta-checkpoint+wal"
                     : (r.from_checkpoint ? "checkpoint+wal" : "wal"),
        static_cast<unsigned long long>(r.checkpoint_seqno),
        static_cast<unsigned long long>(r.next_seqno), r.window_replayed,
        r.live_replayed,
        static_cast<unsigned long long>(r.torn_bytes_truncated),
        wal_shards);
    auto opened = adrec::wal::ShardedWal::Open(wal_dir, wal_opts,
                                               r.stream_next_seqnos);
    if (!opened.ok()) {
      std::fprintf(stderr, "wal open: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    wal = std::move(opened).value();
    options.wal = wal.get();
    options.checkpointer = checkpointer.get();
    recovered_stream_time = r.max_event_time;
  }

  // Follower mode: replicate the leader's WAL tail from where the local
  // (just-recovered) log ends, one replication stream per log stream:
  // follower `s` handshakes `repl <s> <streams> <cursor>` and logs into
  // stream `s` (lane `s % workers` polls it). The server starts
  // read-only until `promote`.
  std::vector<std::unique_ptr<adrec::replica::Follower>> followers;
  if (!follow.empty()) {
    follow_opts.tracer = &tracer;
    for (size_t s = 0; s < wal_shards; ++s) {
      followers.push_back(std::make_unique<adrec::replica::Follower>(
          &engine, wal.get(), s, follow_opts));
      options.followers.push_back(followers.back().get());
    }
    std::printf("adrecd following %s:%u with %zu stream(s) (read-only)\n",
                follow_opts.host.c_str(), follow_opts.port, wal_shards);
  }

  std::signal(SIGPIPE, SIG_IGN);
  adrec::serve::Server server(&engine, options);
  // Resume the stream clock where the recovered trace left off, so the
  // analysis window and ad expiry pick up where the crashed run was.
  if (recovered_stream_time > 0) {
    server.SeedStreamClock(recovered_stream_time);
  }
  if (auto s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("adrecd listening on %s:%u (%zu shard%s, %zu worker%s)\n",
              options.host.c_str(), server.port(), shards,
              shards == 1 ? "" : "s", workers, workers == 1 ? "" : "s");
  std::fflush(stdout);
  server.Run();
  g_server = nullptr;
  std::printf("adrecd drained, exiting\n");
  return 0;
}
