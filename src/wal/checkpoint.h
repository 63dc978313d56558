#ifndef ADREC_WAL_CHECKPOINT_H_
#define ADREC_WAL_CHECKPOINT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "obs/metrics.h"
#include "wal/sharded_wal.h"

namespace adrec::wal {

/// Checkpoint + recovery coordination between the engine snapshot format
/// (core/snapshot) and the WAL (wal/wal.h). Layout inside the log
/// directory:
///
///   <wal_dir>/checkpoint/MANIFEST.tsv   "K <wal_seqno> <shards> <stream_time>"
///                                       then, for a per-shard log
///                                       (wal/sharded_wal.h), one
///                                       "S <stream> <stream_seqno>" line
///                                       per stream high-water mark
///   <wal_dir>/checkpoint/shard<i>/      one core snapshot per shard
///   <wal_dir>/checkpoint.old/           previous checkpoint, kept only
///                                       during the swap window
///
/// A checkpoint is taken by sealing the active WAL segment, snapshotting
/// every shard into `checkpoint.tmp`, and swapping the directory into
/// place (old → checkpoint.old, tmp → checkpoint, fsync, delete old).
/// Recovery prefers `checkpoint`, falls back to `checkpoint.old` when the
/// former is absent or torn, and replays the WAL on top. The log is
/// always a wal::ShardedWal: one stream (the flat classic layout) feeds
/// every shard, while a per-shard log's streams are sealed/snapshotted
/// and later replayed concurrently — one thread per shard, disjoint
/// engine state.
///
/// In CheckpointMode::kDelta the full-directory snapshot is replaced by
/// an incremental delta-chain save under `<wal_dir>/checkpoint.delta`
/// (wal/delta/delta_checkpoint.h): only snapshot files whose content
/// hash changed since the previous generation are written, bounding the
/// save pause by the *churn* since the last checkpoint instead of the
/// total state size. Recovery transparently picks whichever of the
/// classic directory and the delta head is newer, materialises a delta
/// head into `checkpoint.restore.tmp` with strict hash verification, and
/// loads it through the same per-shard snapshot path.

/// How CheckpointManager persists engine state.
enum class CheckpointMode {
  kFull,   ///< classic full-directory snapshot per checkpoint
  kDelta,  ///< delta-chain incremental snapshots (wal/delta)
};

/// Parses "full" / "delta".
Result<CheckpointMode> ParseCheckpointMode(std::string_view name);
std::string_view CheckpointModeName(CheckpointMode mode);

struct CheckpointOptions {
  /// After a successful checkpoint, sealed WAL segments fully covered by
  /// it AND older than `stream_now - analysis_retention` are deleted.
  /// Negative = never truncate: the full log is kept, which lets recovery
  /// rebuild the TFCA analysis window exactly (the checkpoint does not
  /// contain it). A non-negative retention shorter than the engine's
  /// analysis window trades window completeness for disk.
  DurationSec analysis_retention = -1;
  /// Full snapshots per checkpoint, or incremental delta chains. The
  /// daemon flag is --checkpoint-mode.
  CheckpointMode mode = CheckpointMode::kFull;
  /// Delta mode only: force a full rebase generation every N saves,
  /// bounding the chain recovery must resolve. The daemon flag is
  /// --checkpoint-rebase-every.
  size_t rebase_every = 8;
};

/// What Recover() did, for the daemon's startup report.
struct RecoveryResult {
  bool from_checkpoint = false;
  /// WAL seqno the checkpoint covers (0 when none).
  uint64_t checkpoint_seqno = 0;
  /// First seqno a new writer should assign (the per-stream maximum).
  uint64_t next_seqno = 1;
  /// Records ≤ checkpoint_seqno re-fed window-only (ReplayForAnalysis).
  size_t window_replayed = 0;
  /// Records > checkpoint_seqno re-applied through normal ingest.
  size_t live_replayed = 0;
  /// Bytes of torn final frame cut off the newest segment (0 = clean).
  uint64_t torn_bytes_truncated = 0;
  /// Checkpointed stream time (manifest), for seeding the stream clock.
  Timestamp checkpoint_stream_time = 0;
  /// Largest event timestamp seen across checkpoint + replay.
  Timestamp max_event_time = 0;
  /// Per-stream view, one entry per WAL stream (a single-stream recovery
  /// fills one entry mirroring the scalar fields). `stream_next_seqnos`
  /// feeds ShardedWal::Open; the scalar `checkpoint_seqno`/`next_seqno`
  /// hold the per-stream maxima.
  std::vector<uint64_t> stream_checkpoint_seqnos;
  std::vector<uint64_t> stream_next_seqnos;
  /// State was restored from a delta chain (from_checkpoint also true),
  /// with the head generation and the number of generations the restored
  /// file set spanned.
  bool from_delta = false;
  uint64_t delta_gen = 0;
  size_t delta_chain_len = 0;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(std::string wal_dir,
                             CheckpointOptions options = {});

  /// Takes a checkpoint of `engine` paired with the log position: seals
  /// and syncs every stream, snapshots every engine shard, swaps the
  /// checkpoint directory atomically, then truncates sealed segments per
  /// CheckpointOptions. With N streams, one thread per stream seals it
  /// and snapshots its shard, and the manifest records one "S" mark per
  /// stream; one stream feeds every shard and writes no "S" line. On
  /// failure the previous checkpoint is untouched (or survives as
  /// checkpoint.old across the swap window).
  Status Checkpoint(const core::ShardedEngine& engine, ShardedWal* wal,
                    Timestamp stream_now);

  /// Restores `engine` from the newest valid checkpoint (if any) and
  /// replays the log tail of each of `wal_streams` streams: records the
  /// checkpoint already covers are re-fed window-only via
  /// ShardedEngine::ReplayForAnalysis (profiles / counters / inventory
  /// stay snapshot-accurate, no double counting), records past it go
  /// through normal ingest (wal/apply.h). A torn final record is
  /// truncated off. One stream replays through the engine's routing; N
  /// streams must equal the engine shard count and replay concurrently,
  /// one thread per stream touching only its own shard. `engine` must be
  /// freshly constructed with the shard count the checkpoint was taken
  /// with. Fails FailedPrecondition when the log or checkpoint on disk
  /// holds a different stream count (CheckStreamLayout), or a stream
  /// holds another shard's event.
  Result<RecoveryResult> Recover(core::ShardedEngine* engine,
                                 size_t wal_streams = 1) const;

  const std::string& wal_dir() const { return wal_dir_; }
  const CheckpointOptions& options() const { return options_; }

  /// Save-side metric families, for the daemon's merged exposition:
  /// checkpoint.saves / checkpoint.rebases / checkpoint.files_written /
  /// checkpoint.bytes_written counters, checkpoint.save_ms timer,
  /// checkpoint.delta_chain_len gauge.
  const obs::MetricRegistry& metrics() const { return metrics_; }

 private:
  std::string checkpoint_dir() const { return wal_dir_ + "/checkpoint"; }

  /// The delta-mode save path; the caller has already sealed + synced
  /// every stream and taken marks.
  Status DeltaSave(const core::ShardedEngine& engine, uint64_t wal_seqno,
                   const std::vector<uint64_t>& stream_seqnos,
                   Timestamp stream_now);
  Status WriteFullManifest(const std::string& tmp, size_t num_shards,
                           uint64_t wal_seqno,
                           const std::vector<uint64_t>& stream_seqnos,
                           Timestamp stream_now);
  /// Publishes checkpoint.tmp (metrics + atomic directory swap).
  Status SwapFullCheckpoint(const std::string& tmp);
  void RecordSave(std::chrono::steady_clock::time_point save_start);

  const std::string wal_dir_;
  const CheckpointOptions options_;

  obs::MetricRegistry metrics_;
  /// Per-shard RecommendationEngine::mutation_epoch at the last
  /// successful delta save — the "shard unchanged" hints that let a
  /// delta save skip serializing quiet shards. In-memory only: after a
  /// restart the first delta save serializes everything (and usually
  /// still writes little, because the content hashes match).
  std::vector<uint64_t> last_epochs_;
};

}  // namespace adrec::wal

#endif  // ADREC_WAL_CHECKPOINT_H_
