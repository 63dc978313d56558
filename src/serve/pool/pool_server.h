#ifndef ADREC_SERVE_POOL_POOL_SERVER_H_
#define ADREC_SERVE_POOL_POOL_SERVER_H_

#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/sharded_engine.h"
#include "serve/pool/context.h"
#include "serve/server.h"

namespace adrec::serve::pool {

/// Multi-core adrecd (DESIGN.md §16): one acceptor/dispatcher thread
/// (the thread that calls Run) plus N event-loop workers, each a full
/// serve::Server — with all of the single-threaded machinery (group
/// commit, backpressure, shed, idle reap, drain) running per worker over
/// its own connections.
///
/// The acceptor owns the listening socket and deals accepted sockets
/// round-robin to the workers (AdoptSocket); connection-to-worker
/// affinity is therefore arbitrary, and so is shard affinity: the worker
/// that reads a feed op or ad op executes it in place, under the
/// per-shard locks of PoolContext. Rare coordination verbs stop the
/// world (PoolBarrier) instead of growing per-verb fan-out machinery.
///
/// The WAL is one stream per shard (wal::ShardedWal) so the commit
/// barrier, checkpointing and recovery all parallelise; followers are
/// per-stream, polled by worker `stream % N` and applied under the
/// stream's shard lock.
class PoolServer {
 public:
  /// `base` is the per-worker option template. PoolServer fills in
  /// `pool` and `lane`, deals `base.followers` (indexed by WAL stream)
  /// to workers `stream % workers`, and sets every worker read-only when
  /// any follower is attached. `workers` must be >= 2 (use serve::Server
  /// directly for 1). Engine and log must outlive the pool.
  PoolServer(core::ShardedEngine* engine, ServerOptions base,
             size_t workers);
  ~PoolServer();

  PoolServer(const PoolServer&) = delete;
  PoolServer& operator=(const PoolServer&) = delete;

  /// Binds the acceptor's listening socket and starts every worker's
  /// wake pipe. port() is valid after.
  Status Start();

  uint16_t port() const { return port_; }
  size_t workers() const { return ctx_->workers; }

  /// Runs the pool: spawns the worker threads, then serves the accept
  /// loop on the calling thread until RequestDrain. Returns after every
  /// worker has drained and joined and the log streams are synced.
  void Run();

  /// Initiates pool-wide graceful drain (thread-safe, signal-safe).
  void RequestDrain();

  /// Seeds the pool-wide stream clock after recovery (call before Run).
  void SeedStreamClock(Timestamp t) { ctx_->BumpStreamClock(t); }

  /// The pool-wide metrics view. Only safe while the pool is quiescent
  /// (before Run, after Run returns, or from a barrier op).
  obs::MetricsSnapshot MergedSnapshot() const;

 private:
  core::ShardedEngine* engine_;  // not owned
  ServerOptions base_;
  std::unique_ptr<PoolContext> ctx_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::thread> threads_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> drain_requested_{false};
  size_t next_lane_ = 0;
};

}  // namespace adrec::serve::pool

#endif  // ADREC_SERVE_POOL_POOL_SERVER_H_
