#ifndef ADREC_SERVE_POOL_CONTEXT_H_
#define ADREC_SERVE_POOL_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "serve/pool/barrier.h"

namespace adrec::serve {
class Server;
}  // namespace adrec::serve

namespace adrec::serve::pool {

/// Shared state of one worker pool (DESIGN.md §16), owned by PoolServer
/// and handed to every worker Server via ServerOptions::pool. Workers
/// are lanes 0..workers-1; the user-visible worker id is lane + 1 (0
/// means "the single-threaded server" in traces and `conns` output).
struct PoolContext {
  PoolContext(size_t n, size_t shards)
      : workers(n), barrier(n), shard_locks(shards) {}

  const size_t workers;
  PoolBarrier barrier;

  /// One mutex per engine shard. The worker that reads a request runs
  /// it in place under the locks of the shards it touches: its user's
  /// shard for tweet/checkin/topk, every shard in ascending order for
  /// adput/addel. A lock covers only the WAL append and the engine call
  /// (stream `s` is appended only under lock `s`, so each stream keeps
  /// its shard's total order) and is never held across poll(2), a
  /// barrier wait or an fsync. A follower applies stream `s` under lock
  /// `s`. Barrier bodies take none: every worker is parked.
  std::vector<std::mutex> shard_locks;

  /// The pool-wide stream clock: newest event timestamp ingested by ANY
  /// worker, substituted into time-less `topk` queries. A relaxed
  /// max-CAS per ingest replaces the single-threaded server's plain
  /// member.
  std::atomic<int64_t> stream_now{0};

  /// Every worker's Server, indexed by lane. Written once before the
  /// workers start; barrier operations (which run with the pool
  /// quiescent) use it to reach the other workers' connection tables,
  /// followers and read-only gates.
  std::vector<Server*> servers;

  /// Pool-wide metrics view (engine + every worker + WAL streams +
  /// followers + tracer), installed by PoolServer; what the `stats` and
  /// `metrics` verbs on any worker export.
  std::function<obs::MetricsSnapshot()> merged_snapshot;

  void BumpStreamClock(int64_t t) {
    int64_t cur = stream_now.load(std::memory_order_relaxed);
    while (t > cur && !stream_now.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace adrec::serve::pool

#endif  // ADREC_SERVE_POOL_CONTEXT_H_
