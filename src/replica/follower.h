#ifndef ADREC_REPLICA_FOLLOWER_H_
#define ADREC_REPLICA_FOLLOWER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "common/sim_clock.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wal/sharded_wal.h"

namespace adrec::replica {

/// WAL log-shipping replication, follower side (DESIGN.md §12).
///
/// A follower is Recover + live tail apply: the daemon first recovers
/// its local log directory exactly as a restarting leader would, then
/// one Follower per log stream connects to the leader, sends
/// `repl <stream> <streams> <cursor>` with the seqno of the last record
/// that stream already holds, and applies the resulting frame stream
/// through the same rule recovery uses (wal/apply.h) — each frame is
/// appended to the follower's OWN write-ahead log and committed before
/// the event touches the engine, so durability-before-visibility holds
/// on the replica too and a crashed follower restarts from its local
/// log without re-fetching history.
///
/// The class is event-loop furniture, not a thread: serve::Server polls
/// fd() alongside its client sockets and forwards readiness to
/// OnPollEvents(); Tick() drives reconnect backoff and the lag gauges.
/// All methods run on the event-loop thread of the server lane that
/// polls it. With more than one lane, other lanes read the same engine
/// shard meanwhile, so the server hands the follower that shard's lock
/// (set_apply_lock).

struct FollowerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Reconnect backoff: first retry after `backoff_initial` seconds,
  /// doubling per consecutive failure, capped at `backoff_max`.
  double backoff_initial = 0.2;
  double backoff_max = 5.0;
  /// A control/frame line longer than this means the peer is not
  /// speaking the replication protocol; drop and reconnect.
  size_t max_line_bytes = 256 * 1024;
  /// Flight recorder (not owned; nullptr = replica tracing off). Every
  /// applied frame gets a trace: wal.append → wal.commit_wave →
  /// replica.apply with the engine stage spans nested under the apply.
  obs::TraceCollector* tracer = nullptr;
};

/// Lag and liveness, sampled for the replica.* gauges and bench_replica.
struct FollowerLag {
  /// leader tip seqno minus applied seqno (0 when caught up).
  uint64_t records = 0;
  /// Milliseconds the oldest not-yet-applied leader tip announcement has
  /// been waiting, measured entirely on the follower's clock (a tip's
  /// local arrival time is the reference) — no leader/follower clock
  /// comparison, so skew cannot fake or hide lag.
  double ms = 0.0;
};

class Follower {
 public:
  /// `engine` and `wal` must outlive the follower. `wal` is the
  /// follower's local log (already recovered); this follower replicates
  /// its stream `stream`, whose last_seqno() is the cursor. With N > 1
  /// streams, applies touch only engine shard `stream` (the leader
  /// duplicates ad ops into every stream), and the replica.* metrics are
  /// prefixed `replica.s<stream>.` so N followers' lag gauges stay
  /// distinguishable after a merge.
  Follower(core::ShardedEngine* engine, wal::ShardedWal* wal, size_t stream,
           FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// The socket to poll, or -1 while disconnected/backing off.
  int fd() const { return fd_; }
  /// Poll for writability too (connect in progress / handshake pending).
  bool want_write() const;
  /// Streaming (handshake acknowledged by the leader).
  bool streaming() const { return state_ == State::kStreaming; }
  bool detached() const { return detached_; }

  /// Handles poll readiness on fd(): completes the non-blocking connect,
  /// flushes the handshake, reads and applies frames.
  void OnPollEvents(short revents);

  /// Time-driven work: reconnect when the backoff lapses, refresh the
  /// lag gauges. Call once per event-loop iteration.
  void Tick();
  /// Upper bound (ms) the event loop may sleep without missing a
  /// reconnect deadline or a lag-gauge refresh.
  int TickDelayMs() const;

  /// Promotion: close the leader connection and stop reconnecting.
  /// Idempotent. The caller (the `promote` verb) seals the local log and
  /// lifts the server's read-only gate.
  void Detach();

  /// Seqno of the last record applied to the engine (== the local log's
  /// last_seqno once a batch commits).
  uint64_t applied_seqno() const { return applied_seqno_; }
  /// Highest leader tip seqno heard (heartbeats and applied frames).
  uint64_t leader_seqno() const { return leader_tip_; }
  /// Newest event timestamp applied — feeds the server's stream clock so
  /// time-less `topk` on the replica queries at the replicated position.
  Timestamp max_event_time() const { return max_event_time_; }
  FollowerLag Lag() const;

  /// replica.* registry: lag_records/lag_ms/applied_seqno/leader_seqno/
  /// connected gauges; bytes_received/records_applied/heartbeats/
  /// reconnects/apply_errors counters.
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Observer invoked for every replicated event, immediately BEFORE it
  /// is applied to the engine (so an addel observer can still read the
  /// doomed ad's stored metadata). Runs on the event-loop thread. The
  /// server uses this to invalidate its topk result cache per applied
  /// frame — replicated ingest must evict exactly like local ingest.
  void set_apply_observer(std::function<void(const feed::FeedEvent&)> fn) {
    apply_observer_ = std::move(fn);
  }

  /// Lock held around each event's engine apply (and its observer),
  /// taken after the batch's local-log commit; not owned, nullptr (the
  /// default) takes none.
  void set_apply_lock(std::mutex* mu) { apply_lock_ = mu; }

 private:
  enum class State { kDisconnected, kConnecting, kHandshake, kStreaming };

  void StartConnect();
  void CloseAndBackoff(const std::string& why);
  /// Flushes pending handshake bytes; returns false if the conn died.
  bool FlushOut();
  /// Drains readable bytes; returns false if the conn died.
  bool ReadInput();
  /// Consumes complete lines from in_: control lines inline, frames
  /// batched into one local-WAL commit + engine apply.
  void ProcessInput();
  void HandleControlLine(std::string_view line);
  void ApplyEvent(const feed::FeedEvent& event);
  void UpdateLagGauges();
  /// The `repl <stream> <streams> <cursor>` handshake line.
  std::string HandshakeLine() const;

  core::ShardedEngine* engine_;  // not owned
  const size_t stream_;
  const size_t streams_;
  wal::WalWriter* log_;  // stream_ of the local log; not owned
  const FollowerOptions options_;
  std::function<void(const feed::FeedEvent&)> apply_observer_;
  std::mutex* apply_lock_ = nullptr;

  State state_ = State::kDisconnected;
  bool detached_ = false;
  int fd_ = -1;
  std::string in_;
  std::string out_;
  uint64_t applied_seqno_ = 0;
  uint64_t leader_tip_ = 0;
  Timestamp max_event_time_ = 0;
  double backoff_ = 0.0;
  std::chrono::steady_clock::time_point next_attempt_;
  /// Leader tip announcements not yet covered by applied_seqno_, with
  /// their local arrival instants (the lag_ms reference points).
  std::deque<std::pair<uint64_t, std::chrono::steady_clock::time_point>>
      pending_tips_;
  obs::TraceBuilderPool trace_pool_;

  obs::MetricRegistry metrics_;
  obs::Gauge* g_lag_records_;
  obs::Gauge* g_lag_ms_;
  obs::Gauge* g_applied_seqno_;
  obs::Gauge* g_leader_seqno_;
  obs::Gauge* g_connected_;
  obs::Counter* ctr_bytes_received_;
  obs::Counter* ctr_records_applied_;
  obs::Counter* ctr_heartbeats_;
  obs::Counter* ctr_reconnects_;
  obs::Counter* ctr_apply_errors_;
};

}  // namespace adrec::replica

#endif  // ADREC_REPLICA_FOLLOWER_H_
