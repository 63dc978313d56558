#ifndef ADREC_WAL_SHARDED_WAL_H_
#define ADREC_WAL_SHARDED_WAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace adrec::wal {

/// Per-shard log streams (DESIGN.md §16). A log directory split into N
/// streams holds one independent WalWriter per engine shard:
///
///   <wal_dir>/<shard>/wal-<seqno0>.log     (shards > 1)
///   <wal_dir>/wal-<seqno0>.log             (shards == 1, classic layout)
///
/// Every stream has its own seqno space starting at 1. Events that
/// mutate a single shard (tweet / checkin) are appended only to that
/// shard's stream; broadcast inventory ops (adput / addel) are appended
/// to every stream, so each stream alone totally orders everything that
/// touches its shard. That invariant is what lets recovery replay all
/// streams concurrently and replication ship N independent cursors while
/// staying byte-identical to the single-stream layout per shard.

/// Directory of stream `stream` for a log split into `shards` streams.
/// `shards == 1` returns `dir` itself (classic layout).
std::string StreamDir(const std::string& dir, size_t stream, size_t shards);

/// Probes an existing log directory for its stream layout: returns the
/// number of streams (1 when segments live directly under `dir` or the
/// directory is empty/missing, N when numbered stream subdirectories
/// 0..N-1 exist). Fails InvalidArgument on a mixed or gappy layout.
Result<size_t> DetectStreamLayout(const std::string& dir);

/// Checks that the log under `dir` reads as `streams` streams:
/// FailedPrecondition when it holds numbered stream directories of
/// another count, or flat segments while `streams > 1`. An empty or
/// missing directory fits any count. ShardedWal::Open and
/// CheckpointManager::Recover both run it.
Status CheckStreamLayout(const std::string& dir, size_t streams);

/// N WalWriters fronted as one log. Thread-compatible the same way the
/// underlying writers are: each WalWriter is internally thread-safe, and
/// distinct streams never share state, so distinct worker threads may
/// drive distinct streams concurrently with no coordination.
class ShardedWal {
 public:
  /// Opens (creating if needed) all `options.shards` streams under
  /// `dir`. `next_seqnos`, when non-empty, must carry one resume seqno
  /// per stream (e.g. from CheckpointManager::Recover); empty means each
  /// stream scans its own segments.
  static Result<std::unique_ptr<ShardedWal>> Open(
      const std::string& dir, WalOptions options = {},
      const std::vector<uint64_t>& next_seqnos = {});

  ShardedWal(const ShardedWal&) = delete;
  ShardedWal& operator=(const ShardedWal&) = delete;

  size_t num_streams() const { return streams_.size(); }
  WalWriter* stream(size_t i) { return streams_[i].get(); }
  const WalWriter* stream(size_t i) const { return streams_[i].get(); }
  const std::string& dir() const { return dir_; }
  const WalOptions& options() const { return options_; }

  /// Directory of stream `i` (== stream(i)->dir()).
  std::string stream_dir(size_t i) const {
    return StreamDir(dir_, i, streams_.size());
  }

  /// Commit / Sync / Rotate across every stream; first error wins but
  /// every stream is still visited (a durability barrier must not skip
  /// streams behind a failed sibling).
  Status CommitAll();
  Status SyncAll();
  Status RotateAll();

  /// All streams' wal.* metrics merged (counters and gauges sum across
  /// streams; per-stream views are stream(i)->metrics()).
  obs::MetricsSnapshot MergedMetrics() const;

 private:
  ShardedWal(std::string dir, WalOptions options,
             std::vector<std::unique_ptr<WalWriter>> streams);

  const std::string dir_;
  const WalOptions options_;
  std::vector<std::unique_ptr<WalWriter>> streams_;
};

}  // namespace adrec::wal

#endif  // ADREC_WAL_SHARDED_WAL_H_
