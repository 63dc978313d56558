#ifndef ADREC_SERVE_SERVER_H_
#define ADREC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/topk_cache.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

namespace pool {
struct PoolContext;
}  // namespace pool

class PeriodicReporter;

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
  /// verb is appended (deferred) before it executes, and the event loop
  /// runs a policy-aware Commit() barrier before releasing the batch's
  /// replies — under SyncPolicy::kGroup an acknowledged ingest is on
  /// disk, at one fdatasync per dirty stream per event-loop batch rather
  /// than per record. The stream count is 1 (every event in one stream)
  /// or the engine shard count (DESIGN.md §16): tweets/check-ins then
  /// append to their owner shard's stream, and ad ops are duplicated
  /// into every stream. Replication serves one `repl` connection per
  /// stream.
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
  /// standalone): one Follower per WAL stream, indexed by stream. The
  /// server polls every follower's leader connection inside its own
  /// event loop (a pool worker gets the followers of streams
  /// `s % pool->workers == lane`, which apply under the shard locks),
  /// starts read-only (write verbs answer `READONLY`) and stays
  /// read-only until the `promote` verb detaches them all. Requires a
  /// log (the follower logs before it applies).
  std::vector<replica::Follower*> followers;
  /// Start read-only even with no follower attached locally: a pool
  /// worker whose shards happen to have no follower still must refuse
  /// writes while its siblings replicate.
  bool start_read_only = false;
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
  /// request it made durable. Shared by all pool workers (the rings are
  /// multi-writer safe); records carry the worker id.
  obs::TraceCollector* tracer = nullptr;
  /// Topk result cache (DESIGN.md §14). Off by default (capacity 0);
  /// `--topk-cache=N` turns it on. The server owns the cache, consults it
  /// under the `topk` verb (hit-time revalidation + charging through the
  /// engine keeps cached replies byte-identical to recomputed ones), and
  /// invalidates it on every ingest verb — and, on a follower, on every
  /// replicated frame the follower applies. Forced off in pool mode
  /// (cross-worker invalidation would reintroduce the coordination the
  /// pool exists to avoid).
  cache::TopkCacheOptions topk_cache;
  /// Worker-pool mode (DESIGN.md §16; not owned). When set, this Server
  /// is one event-loop worker of a PoolServer: it adopts sockets from
  /// the acceptor instead of listening, runs every feed op and ad op it
  /// reads in place under the pool's per-shard locks, polls the
  /// followers of shards `s % pool->workers == lane`, and joins the
  /// stop-the-world barrier for the rare coordination verbs.
  pool::PoolContext* pool = nullptr;
  /// This worker's lane in [0, pool->workers). The user-visible worker
  /// id (traces, `conns`) is lane + 1.
  size_t lane = 0;
};

/// Merges the registries every serving view shares into `out`: the
/// engine's shards, the log's streams, the followers, the checkpointer
/// and the tracer. Server and PoolServer both build their `stats` /
/// `metrics` exposition on it, so the families are the same whatever
/// the worker count.
void MergeSharedMetrics(const core::ShardedEngine& engine,
                        const ServerOptions& options,
                        obs::MetricsSnapshot* out);

/// The adrecd network front end: an event-driven (poll + non-blocking
/// sockets) TCP daemon speaking the line protocol of serve/protocol.h,
/// dispatching onto a core::ShardedEngine.
///
/// Single-threaded by design, mirroring the engine's single-writer
/// streaming model: alone, the event loop is the sole mutator of the
/// engine and takes no lock. Scale-out across cores is by running
/// several of these loops side by side (serve/pool/pool_server.h), each
/// executing what it reads under one mutex per engine shard — not by
/// threads inside one loop. The loop multiplexes with poll(2) —
/// connection counts here are bounded by max_connections, far below
/// where poll's O(n) scan matters.
///
/// Lifecycle: Start() binds and listens (port() is valid after), Run()
/// blocks in the event loop until RequestDrain() — which is async-signal-
/// safe and thread-safe — stops accepting, flushes pending responses and
/// returns. Tests run Run() on a background thread and drive blocking
/// Clients against port().
class Server {
 public:
  /// `engine` must outlive the server; the event loop is its only caller
  /// while Run() executes.
  explicit Server(core::ShardedEngine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates the listening socket (pool workers only create their wake
  /// pipe — the PoolServer's acceptor owns the listener). Fails if the
  /// port is taken.
  Status Start();

  /// The bound port (valid after a successful Start; 0 for pool workers).
  uint16_t port() const { return port_; }

  /// Runs the event loop until drained. Call at most once, after Start().
  void Run();

  /// Initiates graceful drain: stop accepting, serve what is buffered,
  /// then return from Run(). Safe from signal handlers and other threads
  /// (single write(2) to a self-pipe).
  void RequestDrain();

  /// Hands an accepted socket to this worker's event loop (pool mode;
  /// thread-safe, called from the acceptor thread). The worker applies
  /// its own max_connections shed at adoption.
  void AdoptSocket(int fd);

  /// The serve.* metric registry (connections, per-verb commands and
  /// latency, parse errors, sheds, bytes in/out).
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// serve.* metrics merged with the shared registries
  /// (MergeSharedMetrics) and the topk cache's — the view the `stats`
  /// and `metrics` commands export. In pool mode this is the pool-wide
  /// view (PoolContext::merged_snapshot).
  obs::MetricsSnapshot MergedSnapshot() const;

  /// Seeds the stream clock (newest-event-time substitution for `topk`)
  /// after recovery, so a freshly restarted daemon answers time-less
  /// queries at the recovered stream position, not at t=0.
  void SeedStreamClock(Timestamp t) { BumpStreamClock(t); }

  // --- Pool-barrier surface: called only while the pool is quiescent
  // (every worker parked in the barrier), or from this server's own
  // event-loop thread. ---

  /// Appends this worker's `conns` lines (without header/END) to `out`;
  /// `self` marks the requesting connection when it lives here.
  void AppendConnsTo(std::string* out, const void* self) const;
  size_t num_connections() const { return connections_.size(); }
  const std::vector<replica::Follower*>& followers() const {
    return options_.followers;
  }
  void set_read_only(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  /// Smallest WAL seqno a replication connection on THIS worker still
  /// needs from `stream` (its next unshipped frame), UINT64_MAX when no
  /// replica is attached here. Compaction takes the min across workers
  /// as its preserve floor so a follower's resume cursor never lands in
  /// a compacted gap.
  uint64_t ReplCursorFloor(size_t stream) const;

 private:
  struct Connection;
  class ShardLockGuard;

  void AcceptNew();
  /// Registers one accepted/adopted socket (or sheds it at the door).
  void AdmitSocket(int fd);
  /// Adopts sockets queued by the acceptor thread (pool mode).
  void AdoptPending();
  /// Drains readable bytes; returns false when the connection is gone.
  bool ReadFrom(Connection* conn);
  /// Parses and executes every complete line the backpressure budget
  /// allows, appending responses to the write buffer.
  void ProcessLines(Connection* conn);
  void Dispatch(std::string_view line, Connection* conn);
  std::string Execute(const Request& req, Connection* conn);
  /// Flushes the write buffer; returns false when the connection is gone.
  bool WriteTo(Connection* conn);
  void CloseConnection(Connection* conn);
  void CloseIdle();
  size_t InflightBytes() const;

  // --- Pool mode. ---
  bool pool_mode() const { return pool_ != nullptr; }
  /// 1-based worker id for traces/conns; 0 in the single-threaded server.
  uint32_t worker_id() const;
  /// The engine shards [first, last) `req` reads or writes: its user's
  /// shard for tweet/checkin/topk, every shard for adput/addel, none for
  /// the other verbs.
  std::pair<size_t, size_t> ShardsOf(const Request& req) const;
  /// Pool mode: takes the locks of the shards `req` touches (ShardsOf)
  /// in ascending order, counting and timing the acquisitions that found
  /// a lock held (with a `pool.shard_wait` span on `trace`), and marks
  /// those shards' streams for this wave's commit. Takes none outside
  /// pool mode.
  ShardLockGuard LockShards(const Request& req, obs::TraceBuilder* trace);

  // --- Stream clock (plain member single-threaded, pool atomic). ---
  Timestamp StreamNow() const;
  void BumpStreamClock(Timestamp t);

  // --- Log streams. ---
  size_t num_streams() const { return streams_.size(); }
  /// Appends an ingest verb's line to the log (deferred: CommitWal makes
  /// it durable): a tweet/check-in to its owner shard's stream, an ad op
  /// to every stream. A no-op without a log.
  Status LogIngest(const Request& req, std::string_view line);
  /// Periodic window report (options_.report_interval), run between
  /// waves like MaybeCheckpoint; a pool reports from lane 0 inside a
  /// barrier, so the pool-wide scrape is quiescent.
  void MaybeReport();

  std::string ExecuteTopK(const Request& req);
  /// The cached topk path: lookup + revalidate-and-charge, else compute
  /// and fill. `query` already has the stream clock substituted.
  std::string ExecuteTopKCached(const feed::Tweet& query, size_t k);
  /// Evicts the cache entries a feed event can influence. The follower's
  /// apply observer routes every replicated frame through here (pre-
  /// apply); the leader-side ingest verbs call the cache directly so
  /// they can gate on the engine's accept/reject status.
  void InvalidateCacheFor(const feed::FeedEvent& event);
  std::string ExecuteMatch(const Request& req);
  std::string ExecuteStats();
  std::string ExecuteMetrics();
  std::string ExecuteTrace(const Request& req);
  std::string ExecuteSlow();
  std::string ExecuteConns(const Connection* self);
  std::string ExecuteSnapshot(const Request& req);
  std::string ExecuteCheckpoint();
  /// The `compact` verb body: compacts every stream's sealed segments,
  /// preserving everything at or past the attached replicas' cursors.
  std::string ExecuteCompact();
  std::string ExecuteRepl(const Request& req, Connection* conn);
  std::string ExecutePromote();
  /// Leader-side tail fan-out: after the wave's WAL commit, ships newly
  /// flushed frames (and due heartbeats) to every replication stream
  /// whose write buffer has room.
  void PumpReplicas();
  /// Durability barrier for the deferred WAL appends of the current
  /// event-loop batch; no-op when nothing was appended since the last
  /// commit. Commits every stream the wave dirtied; closes the wave's
  /// write-verb traces with a retroactive `wal.commit_wave` span.
  void CommitWal();
  void MaybeCheckpoint();
  /// Idle-time compaction trigger (options_.compact_interval), run from
  /// the event loop between waves like MaybeCheckpoint.
  void MaybeCompact();
  /// Finishes a trace through the collector and recycles the builder.
  void FinishTrace(std::unique_ptr<obs::TraceBuilder> trace);

  core::ShardedEngine* engine_;  // not owned
  ServerOptions options_;
  /// options_.wal's streams: empty (durability off), one, or one per
  /// engine shard.
  std::vector<wal::WalWriter*> streams_;
  /// Streams the wave's Commit barrier covers: those it appended to and,
  /// in a pool, those of every shard it touched (another worker's append
  /// there may be visible to this wave's replies).
  std::vector<bool> stream_dirty_;
  bool wal_dirty_ = false;
  pool::PoolContext* pool_ = nullptr;  // not owned
  /// Window reporter; null unless this server reports (see MaybeReport).
  std::unique_ptr<PeriodicReporter> reporter_;
  /// Topk result cache; nullptr when options_.topk_cache.capacity == 0.
  std::unique_ptr<cache::TopkCache> cache_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: RequestDrain -> event loop
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  /// Sockets handed over by the pool acceptor, awaiting adoption.
  std::mutex adopt_mu_;
  std::vector<int> adopted_;
  /// Accept backoff after EMFILE/ENFILE: until this instant the listen
  /// fd is left out of the poll set so the loop cannot busy-spin on a
  /// readable-but-unacceptable listener.
  std::chrono::steady_clock::time_point accept_pause_until_{};
  /// Newest event timestamp ingested — substituted into `topk` queries
  /// that omit <time> ("now" on the simulated stream clock). Pool mode
  /// uses the shared PoolContext::stream_now instead.
  Timestamp stream_now_ = 0;
  /// Follower read-only gate: write verbs answer `READONLY` until
  /// `promote` clears it. Starts true iff a follower is attached (or
  /// options_.start_read_only).
  bool read_only_ = false;
  std::chrono::steady_clock::time_point last_checkpoint_{};
  std::chrono::steady_clock::time_point last_compact_{};
  std::map<int, Connection> connections_;
  /// Connection ids are monotonic across the server's lifetime (fds are
  /// recycled by the kernel; `conns` output should not be).
  uint64_t next_conn_id_ = 1;
  /// Traces of this wave's write verbs, held open until CommitWal — the
  /// group-commit barrier is part of every one of their latencies.
  std::vector<std::unique_ptr<obs::TraceBuilder>> wave_traces_;
  obs::TraceBuilderPool trace_pool_;

  obs::MetricRegistry metrics_;
  obs::Counter* ctr_accepted_;
  obs::Counter* ctr_rejected_;
  obs::Gauge* g_active_;
  obs::Counter* ctr_parse_errors_;
  obs::Counter* ctr_sheds_;
  obs::Counter* ctr_bytes_in_;
  obs::Counter* ctr_bytes_out_;
  obs::Counter* ctr_idle_closed_;
  obs::Counter* ctr_readonly_rejected_;
  obs::Counter* ctr_repl_bytes_shipped_;
  obs::Counter* ctr_repl_heartbeats_;
  obs::Gauge* g_repl_streams_;
  obs::Counter* ctr_barrier_ops_;
  obs::Counter* ctr_shard_lock_waits_;
  obs::Timer* tm_shard_lock_wait_us_;
  obs::Counter* ctr_cmds_[kNumVerbs];
  obs::Timer* tm_cmds_[kNumVerbs];
};

}  // namespace adrec::serve

#endif  // ADREC_SERVE_SERVER_H_
