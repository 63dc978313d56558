#ifndef ADREC_SERVE_SERVER_H_
#define ADREC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/topk_cache.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/pool/barrier.h"
#include "serve/protocol.h"

namespace adrec::wal {
class CheckpointManager;
class ShardedWal;
class WalWriter;
}  // namespace adrec::wal

namespace adrec::replica {
class Follower;
}  // namespace adrec::replica

namespace adrec::serve {

/// Daemon configuration.
struct ServerOptions {
  /// Listen address; loopback by default (adrecd is an internal service).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Accepted connections beyond this are told `SERVER_ERROR busy` and
  /// closed immediately.
  size_t max_connections = 64;
  /// A request line longer than this — terminated or not — gets
  /// `CLIENT_ERROR line too long` and the connection is closed.
  size_t max_line_bytes = 64 * 1024;
  /// Backpressure: a connection whose pending response bytes exceed this
  /// stops being read (its socket buffer, then the client, blocks) until
  /// the peer drains it.
  size_t max_write_buffer_bytes = 1024 * 1024;
  /// Global cap on pending response bytes across all connections; past
  /// it, commands are shed with `SERVER_ERROR busy` instead of executed.
  size_t max_inflight_bytes = 16 * 1024 * 1024;
  /// Connections silent for this long are closed (0 = never).
  DurationSec idle_timeout = 300;
  /// Cadence of the windowed PeriodicReporter (0 = off): per-interval
  /// events/sec, cmds/sec and per-verb p95 logged from the event loop.
  double report_interval = 0.0;
  /// After RequestDrain, pending responses get this long to flush before
  /// remaining connections are dropped.
  double drain_timeout = 5.0;
  /// Base directory the `snapshot` verb may write under. Empty (the
  /// default) disables the verb entirely; when set, client-supplied
  /// targets must be relative paths without `..` components and are
  /// resolved against this root — a client can never name an arbitrary
  /// filesystem location.
  std::string snapshot_root;
  /// Write-ahead log (not owned; nullptr = durability off). Every ingest
  /// verb is appended (deferred) before it executes, and each lane runs
  /// a policy-aware Commit() barrier before releasing its batch's
  /// replies — under SyncPolicy::kGroup an acknowledged ingest is on
  /// disk, at one fdatasync per dirty stream per event-loop batch rather
  /// than per record. The stream count is the engine shard count
  /// (DESIGN.md §16) — tweets/check-ins append to their owner shard's
  /// stream, and ad ops are duplicated into every stream — or, with one
  /// worker only, 1 (every event in one stream). Replication serves one
  /// `repl` connection per stream.
  wal::ShardedWal* wal = nullptr;
  /// Checkpoint coordinator (not owned; nullptr disables the
  /// `checkpoint` verb and interval checkpointing). Requires a log.
  wal::CheckpointManager* checkpointer = nullptr;
  /// Take a checkpoint automatically every this many wall seconds
  /// (0 = only on explicit `checkpoint` commands).
  double checkpoint_interval = 0.0;
  /// Idle-time WAL segment compaction cadence in wall seconds (0 = only
  /// on explicit `compact` commands): sealed segments are rewritten
  /// dropping superseded inventory records (wal/delta/compactor.h).
  /// Segments a connected follower still needs are never touched.
  /// Requires a log.
  double compact_interval = 0.0;
  /// Follower mode (not owned; empty = this daemon is a leader or a
  /// standalone): one Follower per WAL stream, indexed by stream. Lane
  /// `s % workers` polls follower `s` inside its event loop; with more
  /// than one lane, follower `s` applies under shard `s`'s lock. The
  /// server starts read-only (write verbs answer `READONLY`) and stays
  /// read-only until the `promote` verb detaches them all. Requires a
  /// log (the follower logs before it applies).
  std::vector<replica::Follower*> followers;
  /// Leader side of replication: cadence of `REPL HB <tip>` heartbeats
  /// on idle replication streams (followers derive lag_ms from tip
  /// announcements, so the cadence bounds lag resolution).
  double repl_heartbeat_interval = 1.0;
  /// Max bytes of WAL frames shipped to one replication stream per
  /// event-loop wave. Bounds the per-wave read amplification while a
  /// follower catches up; the live tail is far smaller.
  size_t repl_batch_bytes = 256 * 1024;
  /// Flight recorder (not owned; nullptr or a disabled collector turns
  /// request tracing off). When set, every request gets a trace ID and a
  /// span tree (serve dispatch → engine stages → WAL append/commit wave),
  /// retained tail-based in the collector's rings and served by the
  /// `trace` / `slow` admin verbs. Write-verb traces stay open across the
  /// wave's group-commit barrier so the commit wave is attributed to every
  /// request it made durable. Shared by every lane (the rings are
  /// multi-writer safe); records carry the worker id.
  obs::TraceCollector* tracer = nullptr;
  /// Topk result cache (DESIGN.md §14). Off by default (capacity 0);
  /// `--topk-cache=N` turns it on. The server owns the cache, consults it
  /// under the `topk` verb (hit-time revalidation + charging through the
  /// engine keeps cached replies byte-identical to recomputed ones), and
  /// invalidates it on every ingest verb — and, on a follower, on every
  /// replicated frame the follower applies. Accepted only with one
  /// worker: ingest on any lane would have to invalidate it.
  cache::TopkCacheOptions topk_cache;
  /// Event-loop lanes (DESIGN.md §16), at least 1. Lane 0 runs on the
  /// thread that calls Run(), lanes 1..workers-1 on threads of their
  /// own. Every lane executes what it reads in place under the per-shard
  /// locks; the rare coordination verbs stop every lane. With more than
  /// one lane, a log must have one stream per engine shard. The
  /// user-visible worker id (traces, `conns`) is lane + 1.
  size_t workers = 1;
};

/// The adrecd network front end: an event-driven (poll + non-blocking
/// sockets) TCP daemon speaking the line protocol of serve/protocol.h,
/// dispatching onto a core::ShardedEngine.
///
/// One serving type at every worker count (DESIGN.md §9, §16): the
/// server owns the listener, one mutex per engine shard, the barrier of
/// the rare verbs, the stream clock, the read-only gate and
/// `options.workers` event-loop lanes. Each lane multiplexes its own
/// connections with poll(2) and executes what it reads in place, under
/// the locks of the shards a request touches; lane 0 also polls the
/// listener and deals accepted sockets round-robin, starting with
/// itself. A lane adds no thread inside itself: scale-out across cores
/// is by lanes, one thread each. Connection counts per lane are bounded
/// by max_connections, far below where poll's O(n) scan matters.
///
/// Lifecycle: Start() binds and listens (port() is valid after), Run()
/// blocks in the event loops until RequestDrain() — which is async-
/// signal-safe and thread-safe — stops accepting, flushes pending
/// responses and returns. Tests run Run() on a background thread and
/// drive blocking Clients against port().
class Server {
 public:
  /// `engine` (and the log, checkpointer, followers and tracer named in
  /// `options`) must outlive the server; the lanes are the engine's only
  /// callers while Run() executes.
  explicit Server(core::ShardedEngine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates every lane's wake pipe and the listening socket. Fails if
  /// the port is taken.
  Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Runs lane 0 on the calling thread and lanes 1..N-1 on threads of
  /// their own until drained, then syncs the log once. Call at most
  /// once, after Start().
  void Run();

  /// Initiates graceful drain: stop accepting, serve what is buffered,
  /// then return from Run(). Safe from signal handlers and other threads
  /// (an atomic store and one write(2) per lane's wake pipe).
  void RequestDrain();

  /// Every lane's serve.* registry merged with the engine's shards, the
  /// log's streams, the followers, the checkpointer, the tracer and the
  /// topk cache — the view the `stats` and `metrics` commands export,
  /// the same families whatever the worker count. Only safe while the
  /// lanes are quiescent: before Run, after it returns, or inside a
  /// barrier verb.
  obs::MetricsSnapshot MergedSnapshot() const;

  /// Seeds the stream clock (newest-event-time substitution for `topk`)
  /// after recovery, so a freshly restarted daemon answers time-less
  /// queries at the recovered stream position, not at t=0.
  void SeedStreamClock(Timestamp t) { BumpStreamClock(t); }

 private:
  class Lane;

  /// The stream clock: the newest event timestamp any lane ingested.
  Timestamp StreamNow() const;
  /// A relaxed max-CAS.
  void BumpStreamClock(Timestamp t);
  /// The log stream that holds `shard`'s history: the shard itself when
  /// the log has one stream per shard, else stream 0. Shard locking,
  /// log appends and follower locking all map through it.
  size_t StreamOf(size_t shard) const;
  /// Evicts the cache entries a replicated feed event can influence (the
  /// followers' apply observer; pre-apply). Local ingest verbs call the
  /// cache directly so they can gate on the engine's accept/reject.
  void InvalidateCacheFor(const feed::FeedEvent& event);

  core::ShardedEngine* engine_;  // not owned
  ServerOptions options_;
  /// options_.wal's streams: empty (durability off), one, or one per
  /// engine shard.
  std::vector<wal::WalWriter*> streams_;
  /// One mutex per engine shard (DESIGN.md §16). A lane runs a feed op
  /// under its user's shard lock and an ad op under every lock in
  /// ascending order, across the WAL append and the engine call only:
  /// never across poll(2), a barrier wait or an fsync. Shard `s`'s
  /// events are appended to stream StreamOf(s) under lock `s`. Barrier
  /// bodies take none: every lane is parked.
  std::vector<std::mutex> shard_locks_;
  /// Stops every lane for the rare coordination verbs and the periodic
  /// checkpoint, compaction and report.
  pool::PoolBarrier barrier_;
  std::atomic<int64_t> stream_clock_{0};
  /// Follower read-only gate: write verbs answer `READONLY` until
  /// `promote` clears it. Starts true iff a follower is attached. Only
  /// the `promote` barrier body writes it, with every lane parked.
  bool read_only_ = false;
  /// Topk result cache; nullptr when options_.topk_cache.capacity == 0.
  std::unique_ptr<cache::TopkCache> cache_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  uint16_t port_ = 0;
  /// The listening socket: polled, accepted from and closed on drain by
  /// lane 0 only.
  int listen_fd_ = -1;
  std::atomic<bool> drain_requested_{false};
  /// Last periodic or explicit checkpoint and compaction. Written by
  /// lane 0 between waves and by barrier bodies.
  std::chrono::steady_clock::time_point last_checkpoint_{};
  std::chrono::steady_clock::time_point last_compact_{};
};

}  // namespace adrec::serve

#endif  // ADREC_SERVE_SERVER_H_
