#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/snapshot.h"
#include "obs/stats_export.h"
#include "replica/follower.h"
#include "serve/reporter.h"
#include "wal/checkpoint.h"
#include "wal/delta/compactor.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace adrec::serve {

namespace {

constexpr std::string_view kCrlf = "\r\n";

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(StringFormat("fcntl(O_NONBLOCK): %s",
                                         std::strerror(errno)));
  }
  return Status::OK();
}

/// Exact score text on the wire: round-trips doubles so differential
/// clients see bit-identical rankings.
std::string ScoreText(double score) { return StringFormat("%.17g", score); }

/// The `topk` reply — also the byte sequence the result cache memoises.
std::string FormatTopKReply(const std::vector<index::ScoredAd>& ads) {
  std::string out = StringFormat("ADS %zu", ads.size()) + std::string(kCrlf);
  for (const index::ScoredAd& sa : ads) {
    out += StringFormat("AD %u ", sa.ad.value) + ScoreText(sa.score);
    out += kCrlf;
  }
  out += "END";
  out += kCrlf;
  return out;
}

/// Engine Status -> wire reply for the mutating verbs.
std::string StatusReply(const Status& s) {
  if (s.ok()) return "OK" + std::string(kCrlf);
  if (s.code() == StatusCode::kNotFound) {
    return "NOT_FOUND" + std::string(kCrlf);
  }
  if (s.code() == StatusCode::kInvalidArgument) {
    return "CLIENT_ERROR " + s.message() + std::string(kCrlf);
  }
  return "SERVER_ERROR " + s.ToString() + std::string(kCrlf);
}

/// Marks a trace errored when its reply is a CLIENT_/SERVER_ERROR, with
/// the reply's first line as the reason.
void NoteErrorReply(obs::TraceBuilder* trace, std::string_view reply) {
  if (!StartsWith(reply, "CLIENT_ERROR") &&
      !StartsWith(reply, "SERVER_ERROR")) {
    return;
  }
  trace->SetOutcome(obs::TraceOutcome::kError);
  trace->SetReason(reply.substr(0, std::min(reply.find('\r'), reply.size())));
}

/// The verbs that stop every lane (DESIGN.md §16). Each reads or writes
/// every shard, every stream or every lane's connections, and is rare
/// enough that parking the lanes beats locking for it. One
/// exhaustive switch, like IsWriteVerb: a new verb must be classified
/// here (or get its shards in Server::Lane::ShardsOf) before it can run.
bool IsBarrierVerb(Verb verb) {
  switch (verb) {
    case Verb::kAnalyze:
    case Verb::kMatch:
    case Verb::kSnapshot:
    case Verb::kCheckpoint:
    case Verb::kCompact:
    case Verb::kPromote:
    case Verb::kConns:
    case Verb::kStats:
    case Verb::kMetrics:
      return true;
    // In place: feed and ad ops under their shard locks (ShardsOf), the
    // rest touch no shard.
    case Verb::kTweet:
    case Verb::kCheckIn:
    case Verb::kAdPut:
    case Verb::kAdDel:
    case Verb::kTopK:
    case Verb::kRepl:
    case Verb::kTrace:
    case Verb::kSlow:
    case Verb::kPing:
    case Verb::kQuit:
      return false;
  }
  return false;
}


/// The shard locks one request holds, released in reverse order by
/// Release() or on scope exit.
class ShardLockGuard {
 public:
  ShardLockGuard(std::vector<std::mutex>* locks, size_t first, size_t last)
      : locks_(locks), first_(first), last_(last) {}
  ShardLockGuard(const ShardLockGuard&) = delete;
  ShardLockGuard& operator=(const ShardLockGuard&) = delete;
  ~ShardLockGuard() { Release(); }

  void Release() {
    for (size_t s = last_; s-- > first_;) (*locks_)[s].unlock();
    last_ = first_;
  }

 private:
  std::vector<std::mutex>* locks_;
  size_t first_;
  size_t last_;
};

}  // namespace

/// One event loop (DESIGN.md §9): poll(2) over its wake pipe, its
/// followers, its own connections and, on lane 0, the listener. A wave
/// reads and executes every ready connection, commits the log streams
/// it touched once, then flushes its replies. A lane's state is touched
/// only from its own thread, except the adoption queue (AdoptSocket)
/// and what a barrier body reads or writes with every lane parked.
class Server::Lane {
 public:
  Lane(Server* server, size_t index,
       std::vector<replica::Follower*> followers);
  ~Lane();

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Creates the wake pipe and, on lane 0, the window reporter.
  Status Start();
  /// Runs the event loop until drained.
  void Run();
  /// One byte down the wake pipe: async-signal-safe.
  void Wake();
  /// Admits the sockets lane 0 dealt here; a drained lane sheds them.
  void AdoptPending();
  /// This lane's serve.* and pool.* registry.
  const obs::MetricRegistry& metrics() const { return metrics_; }

 private:
  struct Connection;

  /// Lane 0: accepts what the listener holds and deals it round-robin,
  /// starting with itself.
  void AcceptNew();
  /// Queues a socket accepted by lane 0 and wakes this lane
  /// (thread-safe). The lane applies its own max_connections shed.
  void AdoptSocket(int fd);
  /// Registers one accepted/adopted socket (or sheds it at the door).
  void AdmitSocket(int fd);
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

  /// 1-based worker id for traces and `conns`.
  uint32_t worker_id() const { return static_cast<uint32_t>(index_ + 1); }
  /// The engine shards [first, last) `req` reads or writes: its user's
  /// shard for tweet/checkin/topk, every shard for adput/addel, none for
  /// the other verbs.
  std::pair<size_t, size_t> ShardsOf(const Request& req) const;
  /// Takes the locks of the shards `req` touches (ShardsOf) in
  /// ascending order, counting and timing the acquisitions that found a
  /// lock held (with a `pool.shard_wait` span on `trace`), and marks
  /// those shards' streams for this wave's commit.
  ShardLockGuard LockShards(const Request& req, obs::TraceBuilder* trace);

  size_t num_streams() const { return streams_.size(); }
  /// Appends an ingest verb's line to the log (deferred: CommitWal makes
  /// it durable): a tweet/check-in to its owner shard's stream, an ad op
  /// to every stream. A no-op without a log.
  Status LogIngest(const Request& req, std::string_view line);
  /// Periodic window report (options_.report_interval), run by lane 0
  /// between waves inside a barrier, so the merged scrape is quiescent.
  void MaybeReport();

  std::string ExecuteTopK(const Request& req);
  /// The cached topk path: lookup + revalidate-and-charge, else compute
  /// and fill. `query` already has the stream clock substituted.
  std::string ExecuteTopKCached(const feed::Tweet& query, size_t k);
  std::string ExecuteMatch(const Request& req);
  std::string ExecuteStats();
  std::string ExecuteMetrics();
  std::string ExecuteTrace(const Request& req);
  std::string ExecuteSlow();
  std::string ExecuteConns(const Connection* self);
  /// Appends this lane's `conns` lines (without header/END) to `out`;
  /// `self` marks the requesting connection when it lives here.
  void AppendConnsTo(std::string* out, const void* self) const;
  std::string ExecuteSnapshot(const Request& req);
  std::string ExecuteCheckpoint();
  /// The `compact` verb body: compacts every stream's sealed segments,
  /// preserving everything at or past the attached replicas' cursors.
  std::string ExecuteCompact();
  /// Smallest WAL seqno a replication connection on this lane still
  /// needs from `stream` (its next unshipped frame), UINT64_MAX when no
  /// replica is attached here. Compaction takes the min across lanes as
  /// its preserve floor so a follower's resume cursor never lands in a
  /// compacted gap.
  uint64_t ReplCursorFloor(size_t stream) const;
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
  /// Lane 0's periodic checkpoint and idle-time compaction triggers
  /// (options_.checkpoint_interval, options_.compact_interval), run
  /// between waves inside a barrier.
  void MaybeCheckpoint();
  void MaybeCompact();
  /// Finishes a trace through the collector and recycles the builder.
  void FinishTrace(std::unique_ptr<obs::TraceBuilder> trace);

  Server* const server_;
  const size_t index_;
  // Aliases of the server's shared state.
  core::ShardedEngine* const engine_;
  const ServerOptions& options_;
  const std::vector<wal::WalWriter*>& streams_;
  cache::TopkCache* const cache_;
  /// The followers this lane polls: stream `s` goes to lane
  /// `s % workers`.
  const std::vector<replica::Follower*> followers_;
  /// Streams this wave's Commit barrier covers: those it appended to and
  /// those of every shard it touched (another lane's append there may be
  /// visible to this wave's replies).
  std::vector<bool> stream_dirty_;
  bool wal_dirty_ = false;
  /// Window reporter; lane 0 only, and only with a report interval.
  std::unique_ptr<PeriodicReporter> reporter_;
  int wake_fds_[2] = {-1, -1};  // self-pipe: drain, adoption, barriers
  bool draining_ = false;
  /// Sockets dealt here by lane 0, awaiting adoption.
  std::mutex adopt_mu_;
  std::vector<int> adopted_;
  /// Lane 0's accept backoff after EMFILE/ENFILE: until this instant the
  /// listen fd is left out of the poll set so the loop cannot busy-spin
  /// on a readable-but-unacceptable listener.
  std::chrono::steady_clock::time_point accept_pause_until_{};
  /// Lane 0: the lane the next accepted socket goes to.
  size_t next_lane_ = 0;
  std::map<int, Connection> connections_;
  /// Connection ids are monotonic across the lane's lifetime (fds are
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

/// Per-connection state, owned and touched only by its lane.
struct Server::Lane::Connection {
  int fd = -1;
  /// Unconsumed request bytes (partial or backpressured lines).
  std::string in;
  /// Response bytes not yet accepted by the socket.
  std::string out;
  std::chrono::steady_clock::time_point last_active;
  /// Peer half-closed (or quit): flush `out`, then close.
  bool closing = false;
  // --- `conns` diagnostics ---
  /// Monotonic connection id (fds are recycled; ids are not).
  uint64_t id = 0;
  std::chrono::steady_clock::time_point created;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t cmds = 0;
  /// Wire name of the last parsed verb (static storage via VerbName).
  std::string_view last_verb = "-";
  /// Replication stream (post-`repl` handshake): exempt from the idle
  /// reaper and the global in-flight cap, fed by PumpReplicas.
  bool replica = false;
  /// WAL stream this replication connection follows.
  size_t repl_stream = 0;
  /// Next WAL seqno this replication stream is owed.
  uint64_t repl_next_seqno = 0;
  /// Byte-offset resume state so tail reads do not rescan the segment.
  wal::CursorHint repl_hint;
  std::chrono::steady_clock::time_point repl_last_hb;
};

Server::Server(core::ShardedEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      shard_locks_(engine->num_shards()),
      barrier_(options_.workers) {
  ADREC_CHECK(options_.workers >= 1);
  if (options_.wal != nullptr) {
    for (size_t s = 0; s < options_.wal->num_streams(); ++s) {
      streams_.push_back(options_.wal->stream(s));
    }
    // Stream s holds exactly shard s's history (plus the ad broadcast):
    // any other mapping would break per-shard replay. One stream holds
    // every shard's, in the order one lane appended them.
    ADREC_CHECK(streams_.size() == engine_->num_shards() ||
                (streams_.size() == 1 && options_.workers == 1));
  }
  // The cache would need invalidating by ingest on every lane
  // (DESIGN.md §14).
  ADREC_CHECK(options_.topk_cache.capacity == 0 || options_.workers == 1);
  // A follower starts the daemon read-only; `promote` is the only way
  // out. Followers are indexed by stream and dealt round-robin to the
  // lanes.
  read_only_ = !options_.followers.empty();
  ADREC_CHECK(!read_only_ || options_.followers.size() == streams_.size());
  std::vector<std::vector<replica::Follower*>> lane_followers(
      options_.workers);
  for (size_t s = 0; s < options_.followers.size(); ++s) {
    replica::Follower* follower = options_.followers[s];
    // Another lane may read shard s while this one applies to it. (More
    // than one lane implies one stream per shard, so stream s = shard s.)
    if (options_.workers > 1) follower->set_apply_lock(&shard_locks_[s]);
    lane_followers[s % options_.workers].push_back(follower);
  }
  if (options_.topk_cache.capacity > 0) {
    cache_ = std::make_unique<cache::TopkCache>(options_.topk_cache);
    for (replica::Follower* follower : options_.followers) {
      // Replicated ingest must invalidate exactly like local ingest; the
      // observer fires pre-apply on the event-loop thread.
      follower->set_apply_observer(
          [this](const feed::FeedEvent& event) { InvalidateCacheFor(event); });
    }
  }
  for (size_t lane = 0; lane < options_.workers; ++lane) {
    lanes_.push_back(std::make_unique<Lane>(
        this, lane, std::move(lane_followers[lane])));
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::Start() {
  for (const auto& lane : lanes_) ADREC_RETURN_NOT_OK(lane->Start());

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StringFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal(StringFormat("bind %s:%u: %s",
                                         options_.host.c_str(), options_.port,
                                         std::strerror(errno)));
  }
  if (listen(listen_fd_, 128) != 0) {
    return Status::Internal(StringFormat("listen: %s", std::strerror(errno)));
  }
  ADREC_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(StringFormat("getsockname: %s",
                                         std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

void Server::RequestDrain() {
  // Async-signal-safe: one byte down each lane's self-pipe wakes its
  // poll(); the loop reads the pipe, sees the flag and flips into
  // draining.
  drain_requested_.store(true, std::memory_order_release);
  for (const auto& lane : lanes_) lane->Wake();
}

void Server::Run() {
  ADREC_CHECK(listen_fd_ >= 0);
  last_checkpoint_ = std::chrono::steady_clock::now();
  last_compact_ = last_checkpoint_;
  std::vector<std::thread> threads;
  for (size_t i = 1; i < lanes_.size(); ++i) {
    threads.emplace_back([lane = lanes_[i].get()] { lane->Run(); });
  }
  lanes_[0]->Run();
  for (std::thread& t : threads) t.join();
  // Lane 0 may have dealt a socket to a lane that had already drained:
  // shed it rather than strand the client.
  for (const auto& lane : lanes_) lane->AdoptPending();
  if (options_.wal != nullptr) {
    // Final barrier, once, after every lane stopped: under kNone/kInterval
    // the tail of the log may still be in page cache; a clean shutdown
    // should not lose it.
    const Status st = options_.wal->SyncAll();
    if (!st.ok()) {
      ADREC_LOG(kError) << "serve: final wal sync failed: " << st.ToString();
    }
  }
  ADREC_LOG(kInfo) << "serve: drained, event loops exiting";
}

obs::MetricsSnapshot Server::MergedSnapshot() const {
  obs::MetricsSnapshot snapshot;
  for (const auto& lane : lanes_) {
    snapshot.MergeFrom(lane->metrics().Snapshot());
  }
  if (cache_ != nullptr) snapshot.MergeFrom(cache_->metrics().Snapshot());
  snapshot.MergeFrom(engine_->MergedMetrics());
  if (options_.wal != nullptr) {
    snapshot.MergeFrom(options_.wal->MergedMetrics());
  }
  for (const replica::Follower* follower : options_.followers) {
    snapshot.MergeFrom(follower->metrics().Snapshot());
  }
  if (options_.checkpointer != nullptr) {
    snapshot.MergeFrom(options_.checkpointer->metrics().Snapshot());
  }
  if (options_.tracer != nullptr) {
    snapshot.MergeFrom(options_.tracer->metrics().Snapshot());
  }
  return snapshot;
}

Timestamp Server::StreamNow() const {
  return static_cast<Timestamp>(stream_clock_.load(std::memory_order_relaxed));
}

void Server::BumpStreamClock(Timestamp t) {
  const int64_t next = static_cast<int64_t>(t);
  int64_t cur = stream_clock_.load(std::memory_order_relaxed);
  while (next > cur && !stream_clock_.compare_exchange_weak(
                           cur, next, std::memory_order_relaxed)) {
  }
}

size_t Server::StreamOf(size_t shard) const {
  return streams_.size() == engine_->num_shards() ? shard : 0;
}

void Server::InvalidateCacheFor(const feed::FeedEvent& event) {
  if (cache_ == nullptr) return;
  switch (event.kind) {
    case feed::EventKind::kTweet:
      cache_->OnTweet(event.tweet.user);
      break;
    case feed::EventKind::kCheckIn:
      cache_->OnCheckIn(event.check_in.user, event.check_in.location);
      break;
    case feed::EventKind::kAdInsert:
      cache_->OnAdPut(event.ad.target_locations, event.ad.target_slots);
      break;
    case feed::EventKind::kAdDelete:
      // Pre-apply: the ad is still in the store. A missing ad means the
      // delete will no-op, so nothing can change.
      if (const ads::StoredAd* ad = engine_->FindAd(event.ad_id)) {
        cache_->OnAdRemoved(ad->ad.target_locations, ad->ad.target_slots);
      }
      break;
  }
}

Server::Lane::Lane(Server* server, size_t index,
                   std::vector<replica::Follower*> followers)
    : server_(server),
      index_(index),
      engine_(server->engine_),
      options_(server->options_),
      streams_(server->streams_),
      cache_(server->cache_.get()),
      followers_(std::move(followers)),
      stream_dirty_(server->streams_.size(), false),
      ctr_accepted_(metrics_.GetCounter("serve.connections_accepted")),
      ctr_rejected_(metrics_.GetCounter("serve.connections_rejected")),
      g_active_(metrics_.GetGauge("serve.connections_active")),
      ctr_parse_errors_(metrics_.GetCounter("serve.parse_errors")),
      ctr_sheds_(metrics_.GetCounter("serve.sheds")),
      ctr_bytes_in_(metrics_.GetCounter("serve.bytes_in")),
      ctr_bytes_out_(metrics_.GetCounter("serve.bytes_out")),
      ctr_idle_closed_(metrics_.GetCounter("serve.idle_closed")),
      ctr_readonly_rejected_(
          metrics_.GetCounter("serve.readonly_rejected")),
      ctr_repl_bytes_shipped_(
          metrics_.GetCounter("serve.repl_bytes_shipped")),
      ctr_repl_heartbeats_(metrics_.GetCounter("serve.repl_heartbeats")),
      g_repl_streams_(metrics_.GetGauge("serve.repl_streams")),
      ctr_barrier_ops_(metrics_.GetCounter("serve.pool_barrier_ops")),
      ctr_shard_lock_waits_(metrics_.GetCounter("pool.shard_lock_waits")),
      tm_shard_lock_wait_us_(metrics_.GetTimer("pool.shard_lock_wait_us")) {
  for (size_t v = 0; v < kNumVerbs; ++v) {
    const std::string name(VerbName(static_cast<Verb>(v)));
    ctr_cmds_[v] = metrics_.GetCounter("serve.cmd_" + name);
    tm_cmds_[v] = metrics_.GetTimer("serve.cmd_" + name + "_us");
  }
}

Server::Lane::~Lane() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  for (int fd : adopted_) ::close(fd);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status Server::Lane::Start() {
  if (pipe(wake_fds_) != 0) {
    return Status::Internal(StringFormat("pipe: %s", std::strerror(errno)));
  }
  ADREC_RETURN_NOT_OK(SetNonBlocking(wake_fds_[0]));
  ADREC_RETURN_NOT_OK(SetNonBlocking(wake_fds_[1]));
  // The barrier wakes this loop through the same pipe.
  server_->barrier_.SetWakeFd(index_, wake_fds_[1]);
  // One window reporter per daemon, on lane 0. Created here, before any
  // loop runs, because its first scrape must see every lane quiescent.
  if (index_ == 0 && options_.report_interval > 0.0) {
    reporter_ = std::make_unique<PeriodicReporter>(
        [server = server_] { return server->MergedSnapshot(); },
        options_.report_interval);
  }
  return Status::OK();
}

void Server::Lane::Wake() {
  const char b = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
}

void Server::Lane::AdoptSocket(int fd) {
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    adopted_.push_back(fd);
  }
  Wake();
}

size_t Server::Lane::InflightBytes() const {
  // Replication streams are exempt: a catching-up follower legitimately
  // holds megabytes of frames in flight, and shedding CLIENT traffic
  // because a REPLICA is slow would invert the service's priorities.
  // Replica buffers are bounded separately (PumpReplicas stops feeding a
  // stream past max_write_buffer_bytes).
  size_t total = 0;
  for (const auto& [fd, conn] : connections_) {
    if (!conn.replica) total += conn.out.size();
  }
  return total;
}

void Server::Lane::AdmitSocket(int fd) {
  if (connections_.size() >= options_.max_connections || draining_) {
    // Shed at the door: tell the client why, then hang up. The
    // best-effort write is fine — the socket buffer of a fresh
    // connection is empty.
    const std::string busy = std::string("SERVER_ERROR busy") +
                             std::string(kCrlf);
    [[maybe_unused]] const ssize_t n = ::write(fd, busy.data(), busy.size());
    ::close(fd);
    ctr_rejected_->Inc();
    ctr_sheds_->Inc();
    return;
  }
  if (!SetNonBlocking(fd).ok()) {
    ::close(fd);
    return;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Connection conn;
  conn.fd = fd;
  conn.last_active = std::chrono::steady_clock::now();
  conn.id = next_conn_id_++;
  conn.created = conn.last_active;
  connections_.emplace(fd, std::move(conn));
  ctr_accepted_->Inc();
  g_active_->Set(static_cast<double>(connections_.size()));
}

void Server::Lane::AcceptNew() {
  for (;;) {
    const int fd = ::accept(server_->listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE (and other persistent failures): the listening fd
      // stays readable, so going straight back to poll would busy-spin
      // at 100% CPU. Stop polling the listener briefly instead.
      ADREC_LOG(kWarning) << "serve: accept: " << std::strerror(errno)
                          << ", pausing accepts";
      accept_pause_until_ = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(100);
      return;
    }
    Lane* lane = server_->lanes_[next_lane_].get();
    next_lane_ = (next_lane_ + 1) % server_->lanes_.size();
    if (lane == this) {
      AdmitSocket(fd);
    } else {
      lane->AdoptSocket(fd);
    }
  }
}

void Server::Lane::AdoptPending() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    fds.swap(adopted_);
  }
  for (int fd : fds) AdmitSocket(fd);
}

bool Server::Lane::ReadFrom(Connection* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      ctr_bytes_in_->Inc(static_cast<uint64_t>(n));
      conn->bytes_in += static_cast<uint64_t>(n);
      conn->last_active = std::chrono::steady_clock::now();
      // Oversized frame: no newline within the cap means the client lost
      // the protocol; there is no safe resync point, so answer and close.
      if (conn->in.size() > options_.max_line_bytes &&
          conn->in.find('\n') == std::string::npos) {
        ctr_parse_errors_->Inc();
        conn->in.clear();
        conn->out += "CLIENT_ERROR line too long" + std::string(kCrlf);
        conn->closing = true;
        return true;
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;  // possibly more buffered
    }
    if (n == 0) {
      // Half-close: the peer is done sending but still reads. Process
      // what arrived, flush, then close our side.
      conn->closing = true;
      return true;
    }
    if (errno == EINTR) continue;  // drain signal mid-recv: just retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    CloseConnection(conn);  // ECONNRESET and friends
    return false;
  }
}

void Server::Lane::ProcessLines(Connection* conn) {
  size_t start = 0;
  while (start < conn->in.size()) {
    // Backpressure: once this connection's pending responses pass the
    // cap, stop consuming its pipeline — poll stops watching POLLIN until
    // the peer drains the write buffer.
    if (conn->out.size() >= options_.max_write_buffer_bytes) break;
    const size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) {
      // A partial line longer than the cap can never complete validly.
      if (conn->in.size() - start > options_.max_line_bytes) {
        ctr_parse_errors_->Inc();
        conn->out += "CLIENT_ERROR line too long" + std::string(kCrlf);
        conn->closing = true;
        start = conn->in.size();
      }
      break;
    }
    size_t end = nl;
    if (end > start && conn->in[end - 1] == '\r') --end;
    // The cap applies to complete lines too, even when the newline
    // arrived in the same read batch (ReadFrom only sees newline-less
    // overruns); a client this far out of protocol is cut off.
    if (end - start > options_.max_line_bytes) {
      ctr_parse_errors_->Inc();
      conn->out += "CLIENT_ERROR line too long" + std::string(kCrlf);
      conn->closing = true;
      start = conn->in.size();
      break;
    }
    const bool was_closing = conn->closing;
    Dispatch(std::string_view(conn->in).substr(start, end - start), conn);
    start = nl + 1;
    if (conn->closing && !was_closing) {  // quit: drop any pipelined tail
      start = conn->in.size();
      break;
    }
  }
  conn->in.erase(0, start);
}

void Server::Lane::Dispatch(std::string_view line, Connection* conn) {
  // Every request gets a trace (when the flight recorder is on): started
  // before parsing so even malformed lines leave a pinned record with
  // the refusal reason — overload and abuse forensics need exactly the
  // requests that never executed.
  std::unique_ptr<obs::TraceBuilder> trace;
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    trace = trace_pool_.Acquire();
    trace->Start(options_.tracer->NextTraceId(), line);
    trace->SetWorker(worker_id());
  }
  const uint32_t parse_span =
      trace != nullptr ? trace->StartSpan("serve.parse") : 0;
  auto parsed = ParseRequest(line);
  if (trace != nullptr) trace->EndSpan(parse_span);
  if (!parsed.ok()) {
    ctr_parse_errors_->Inc();
    const std::string detail = parsed.status().message();
    conn->out += "CLIENT_ERROR " + detail + std::string(kCrlf);
    if (trace != nullptr) {
      trace->SetOutcome(obs::TraceOutcome::kError);
      trace->SetReason("CLIENT_ERROR " + detail);
      FinishTrace(std::move(trace));
    }
    return;
  }
  const Request& req = parsed.value();
  const size_t verb = static_cast<size_t>(req.verb);
  ctr_cmds_[verb]->Inc();
  ++conn->cmds;
  conn->last_verb = VerbName(req.verb);
  if (req.verb == Verb::kQuit) {
    conn->closing = true;
    FinishTrace(std::move(trace));
    return;
  }
  // Follower read-only gate. The classification lives in IsWriteVerb —
  // one switch, compile-time exhaustive — so a future verb cannot reach
  // the engine's write path here without being classified there first.
  // Only the (barrier) promote clears the gate, with every lane parked.
  if (server_->read_only_ && IsWriteVerb(req.verb)) {
    ctr_readonly_rejected_->Inc();
    conn->out += "READONLY" + std::string(kCrlf);
    if (trace != nullptr) {
      trace->SetOutcome(obs::TraceOutcome::kReadonly);
      trace->SetReason("READONLY");
      FinishTrace(std::move(trace));
    }
    return;
  }
  // Global in-flight cap: executing a command whose response has nowhere
  // to go just grows memory; shed instead.
  if (InflightBytes() > options_.max_inflight_bytes) {
    ctr_sheds_->Inc();
    conn->out += "SERVER_ERROR busy" + std::string(kCrlf);
    if (trace != nullptr) {
      trace->SetOutcome(obs::TraceOutcome::kShed);
      trace->SetReason("SERVER_ERROR busy");
      FinishTrace(std::move(trace));
    }
    return;
  }
  // Rare coordination verbs stop every lane (DESIGN.md §16) instead of
  // growing fan-out/merge machinery. The body runs on whichever lane
  // arrives last, so it activates the request's trace on that thread;
  // this lane is parked in the barrier meanwhile, so the trace still has
  // one writer.
  if (IsBarrierVerb(req.verb)) {
    obs::ScopedTimer timer(tm_cmds_[verb]);
    ctr_barrier_ops_->Inc();
    const uint32_t barrier_span =
        trace != nullptr ? trace->StartSpan("pool.barrier") : 0;
    std::string reply;
    server_->barrier_.Run(index_, [&] {
      const uint32_t exec_span =
          trace != nullptr ? trace->StartSpan("serve.dispatch") : 0;
      obs::ScopedActiveTrace active(trace.get());
      reply = Execute(req, conn);
      if (trace != nullptr) trace->EndSpan(exec_span);
    });
    if (trace != nullptr) {
      trace->EndSpan(barrier_span);
      NoteErrorReply(trace.get(), reply);
    }
    conn->out += reply;
    FinishTrace(std::move(trace));
    return;
  }
  // Everything else runs here, on the thread that read it, under the
  // locks of the shards it touches, held across the WAL append and the
  // engine call only.
  ShardLockGuard shard_locks = LockShards(req, trace.get());
  // Write-ahead: the raw request line is the log payload (the ingest
  // grammar IS the wire grammar), appended before the engine mutates. An
  // event the WAL cannot record is refused — never applied-but-lost.
  const bool wal_appended = !streams_.empty() && IsWriteVerb(req.verb);
  if (wal_appended) {
    const uint32_t append_span =
        trace != nullptr ? trace->StartSpan("wal.append") : 0;
    const Status append_status = LogIngest(req, line);
    if (trace != nullptr) trace->EndSpan(append_span);
    if (!append_status.ok()) {
      conn->out += "SERVER_ERROR wal append failed" + std::string(kCrlf);
      if (trace != nullptr) {
        trace->SetOutcome(obs::TraceOutcome::kError);
        trace->SetReason("SERVER_ERROR wal append failed");
        FinishTrace(std::move(trace));
      }
      return;
    }
  }
  {
    obs::ScopedTimer timer(tm_cmds_[verb]);
    const uint32_t exec_span =
        trace != nullptr ? trace->StartSpan("serve.dispatch") : 0;
    // Engine stage probes (obs::StageSpan) attach to the active trace,
    // so their spans nest under serve.dispatch without the engine ever
    // seeing a trace parameter.
    obs::ScopedActiveTrace active(trace.get());
    std::string reply = Execute(req, conn);
    shard_locks.Release();
    if (trace != nullptr) {
      trace->EndSpan(exec_span);
      NoteErrorReply(trace.get(), reply);
    }
    conn->out += reply;
  }
  if (trace == nullptr) return;
  if (wal_appended) {
    // The request is not over: its reply is withheld until the wave's
    // group commit. CommitWal appends the shared `wal.commit_wave` span
    // and finishes these traces, so the root duration matches what the
    // client observes.
    wave_traces_.push_back(std::move(trace));
  } else {
    FinishTrace(std::move(trace));
  }
}

std::pair<size_t, size_t> Server::Lane::ShardsOf(const Request& req) const {
  switch (req.verb) {
    case Verb::kTweet:
    case Verb::kTopK: {  // topk routes to its author's shard, like ingest
      const size_t s = engine_->ShardOf(req.tweet.user);
      return {s, s + 1};
    }
    case Verb::kCheckIn: {
      const size_t s = engine_->ShardOf(req.check_in.user);
      return {s, s + 1};
    }
    case Verb::kAdPut:
    case Verb::kAdDel:
      return {0, engine_->num_shards()};
    case Verb::kMatch:
    case Verb::kAnalyze:
    case Verb::kStats:
    case Verb::kMetrics:
    case Verb::kSnapshot:
    case Verb::kCheckpoint:
    case Verb::kCompact:
    case Verb::kRepl:
    case Verb::kPromote:
    case Verb::kTrace:
    case Verb::kSlow:
    case Verb::kConns:
    case Verb::kPing:
    case Verb::kQuit:
      break;
  }
  return {0, 0};
}

ShardLockGuard Server::Lane::LockShards(const Request& req,
                                          obs::TraceBuilder* trace) {
  const auto [first, last] = ShardsOf(req);
  for (size_t s = first; s < last; ++s) {
    std::mutex& mu = server_->shard_locks_[s];
    if (!mu.try_lock()) {
      const auto t0 = std::chrono::steady_clock::now();
      mu.lock();
      const auto t1 = std::chrono::steady_clock::now();
      ctr_shard_lock_waits_->Inc();
      tm_shard_lock_wait_us_->Record(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      if (trace != nullptr) trace->AddSpan("pool.shard_wait", t0, t1);
    }
    // Durability before visibility across lanes: this request may see
    // another lane's append to shard s's stream that is not committed
    // yet, so the wave commits that stream before its replies leave (a
    // no-op when nothing is pending).
    if (!streams_.empty()) {
      stream_dirty_[server_->StreamOf(s)] = true;
      wal_dirty_ = true;
    }
  }
  return ShardLockGuard(&server_->shard_locks_, first, last);
}

Status Server::Lane::LogIngest(const Request& req, std::string_view line) {
  // A feed event goes to its owner shard's stream only; an ad op is
  // duplicated into every stream, so each stream alone totally orders
  // everything that touches its shard. (Write verbs touch a shard.)
  const auto [first, last] = ShardsOf(req);
  for (size_t s = server_->StreamOf(first); s <= server_->StreamOf(last - 1);
       ++s) {
    auto seqno = streams_[s]->AppendDeferred(line);
    if (!seqno.ok()) {
      ADREC_LOG(kError) << "serve: wal append failed: "
                        << seqno.status().ToString();
      return seqno.status();
    }
    stream_dirty_[s] = true;
    wal_dirty_ = true;
  }
  return Status::OK();
}

void Server::Lane::FinishTrace(std::unique_ptr<obs::TraceBuilder> trace) {
  if (trace == nullptr) return;
  if (options_.tracer != nullptr) options_.tracer->Finish(trace.get());
  trace_pool_.Release(std::move(trace));
}

std::string Server::Lane::Execute(const Request& req, Connection* conn) {
  (void)conn;
  switch (req.verb) {
    case Verb::kTweet:
      engine_->OnTweet(req.tweet);
      if (cache_ != nullptr) cache_->OnTweet(req.tweet.user);
      server_->BumpStreamClock(req.tweet.time);
      return "OK" + std::string(kCrlf);
    case Verb::kCheckIn:
      engine_->OnCheckIn(req.check_in);
      if (cache_ != nullptr) {
        cache_->OnCheckIn(req.check_in.user, req.check_in.location);
      }
      server_->BumpStreamClock(req.check_in.time);
      return "OK" + std::string(kCrlf);
    case Verb::kAdPut: {
      const Status st = engine_->InsertAd(req.ad);
      if (cache_ != nullptr && st.ok()) {
        cache_->OnAdPut(req.ad.target_locations, req.ad.target_slots);
      }
      return StatusReply(st);
    }
    case Verb::kAdDel: {
      // The fan-out needs the ad's targeting as stored, and the store
      // forgets it on removal — look it up first.
      std::vector<LocationId> target_locations;
      std::vector<SlotId> target_slots;
      bool stored = false;
      if (cache_ != nullptr) {
        if (const ads::StoredAd* ad = engine_->FindAd(req.ad_id)) {
          stored = true;
          target_locations = ad->ad.target_locations;
          target_slots = ad->ad.target_slots;
        }
      }
      const Status st = engine_->RemoveAd(req.ad_id);
      if (cache_ != nullptr && stored && st.ok()) {
        cache_->OnAdRemoved(target_locations, target_slots);
      }
      return StatusReply(st);
    }
    case Verb::kTopK:
      return ExecuteTopK(req);
    case Verb::kMatch:
      return ExecuteMatch(req);
    case Verb::kAnalyze:
      return StatusReply(req.alpha < 0.0 ? engine_->RunAnalysis()
                                         : engine_->RunAnalysis(req.alpha));
    case Verb::kStats:
      return ExecuteStats();
    case Verb::kMetrics:
      return ExecuteMetrics();
    case Verb::kSnapshot:
      return ExecuteSnapshot(req);
    case Verb::kCheckpoint:
      return ExecuteCheckpoint();
    case Verb::kCompact:
      return ExecuteCompact();
    case Verb::kRepl:
      return ExecuteRepl(req, conn);
    case Verb::kPromote:
      return ExecutePromote();
    case Verb::kTrace:
      return ExecuteTrace(req);
    case Verb::kSlow:
      return ExecuteSlow();
    case Verb::kConns:
      return ExecuteConns(conn);
    case Verb::kPing:
      return "PONG" + std::string(kCrlf);
    case Verb::kQuit:
      break;  // handled in Dispatch
  }
  return "SERVER_ERROR unreachable" + std::string(kCrlf);
}

std::string Server::Lane::ExecuteTopK(const Request& req) {
  feed::Tweet query = req.tweet;
  if (!req.has_time) query.time = server_->StreamNow();
  if (cache_ != nullptr) return ExecuteTopKCached(query, req.k);
  return FormatTopKReply(engine_->TopKAdsForTweet(query, req.k));
}

std::string Server::Lane::ExecuteTopKCached(const feed::Tweet& query,
                                            size_t k) {
  cache::TopkKey key;
  key.user = query.user.value;
  key.time = query.time;
  key.k = static_cast<uint32_t>(k);
  key.text = query.text;

  {
    obs::StageSpan probe(cache_->lookup_timer(), "cache.lookup");
    if (cache::TopkCache::Entry* entry = cache_->Find(key)) {
      // Serving is a mutation: re-check and charge the memoised ads
      // through the engine so a hit is observably identical to a
      // recomputation. A failed revalidation falls through to recompute.
      if (engine_->ChargeCachedTopK(query, entry->ads)) {
        cache_->RecordHit(entry);
        std::string reply = entry->reply;
        if (!entry->ads.empty() && engine_->frequency_cap_enabled()) {
          cache_->OnUserCharged(query.user, key);
        }
        return reply;
      }
      cache_->RecordRevalidationMiss(entry);
    } else {
      cache_->RecordMiss();
    }
  }

  const std::vector<index::ScoredAd> ads = engine_->TopKAdsForTweet(query, k);
  std::string reply = FormatTopKReply(ads);
  {
    obs::StageSpan probe(cache_->fill_timer(), "cache.fill");
    const core::TopkContext ctx = engine_->TopkContextFor(query);
    std::vector<AdId> ids;
    ids.reserve(ads.size());
    for (const index::ScoredAd& sa : ads) ids.push_back(sa.ad);
    const bool charged = !ids.empty();
    cache_->Insert(key, reply, std::move(ids), ctx.location, ctx.slot);
    // The compute above charged this user's frequency caps, which can
    // reshape cap decisions baked into their other entries.
    if (charged && engine_->frequency_cap_enabled()) {
      cache_->OnUserCharged(query.user, key);
    }
  }
  return reply;
}

std::string Server::Lane::ExecuteMatch(const Request& req) {
  auto match = engine_->RecommendUsers(req.ad_id);
  if (!match.ok()) {
    if (match.status().code() == StatusCode::kNotFound) {
      return "NOT_FOUND" + std::string(kCrlf);
    }
    return "SERVER_ERROR " + match.status().ToString() + std::string(kCrlf);
  }
  std::string out = StringFormat("USERS %zu", match.value().users.size()) +
                    std::string(kCrlf);
  for (const core::MatchedUser& mu : match.value().users) {
    out += StringFormat("USER %u ", mu.user.value) + ScoreText(mu.score);
    out += kCrlf;
  }
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::Lane::ExecuteStats() {
  const obs::StatsReport report = obs::BuildReport(server_->MergedSnapshot());
  std::string out;
  for (const auto& [name, value] : report.counters) {
    out += "STAT " + name +
           StringFormat(" %llu", static_cast<unsigned long long>(value));
    out += kCrlf;
  }
  for (const auto& [name, value] : report.gauges) {
    out += "STAT " + name + StringFormat(" %.6f", value);
    out += kCrlf;
  }
  for (const auto& [name, t] : report.timers) {
    out += "STAT " + name +
           StringFormat(
               " count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
               static_cast<unsigned long long>(t.count), t.mean, t.p50,
               t.p95, t.p99, t.max);
    out += kCrlf;
  }
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::Lane::ExecuteMetrics() {
  const std::string payload = obs::ExportPrometheus(server_->MergedSnapshot());
  std::string out = StringFormat("METRICS %zu", payload.size()) +
                    std::string(kCrlf);
  out += payload;
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::Lane::ExecuteTrace(const Request& req) {
  if (options_.tracer == nullptr || !options_.tracer->enabled()) {
    return "SERVER_ERROR tracing disabled (no flight recorder configured)" +
           std::string(kCrlf);
  }
  const std::vector<obs::TraceRecord> traces = options_.tracer->Recent();
  const std::string payload = req.chrome ? obs::ExportTracesChrome(traces)
                                         : obs::ExportTracesTsv(traces);
  std::string out = StringFormat("TRACE %zu", payload.size()) +
                    std::string(kCrlf);
  out += payload;
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::Lane::ExecuteSlow() {
  if (options_.tracer == nullptr || !options_.tracer->enabled()) {
    return "SERVER_ERROR tracing disabled (no flight recorder configured)" +
           std::string(kCrlf);
  }
  const std::string payload =
      obs::ExportTracesTsv(options_.tracer->Slow());
  std::string out = StringFormat("SLOW %zu", payload.size()) +
                    std::string(kCrlf);
  out += payload;
  out += "END";
  out += kCrlf;
  return out;
}

void Server::Lane::AppendConnsTo(std::string* out, const void* self) const {
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [fd, conn] : connections_) {
    *out += StringFormat(
        "CONN %llu fd=%d worker=%u age_s=%.1f idle_s=%.1f cmds=%llu "
        "last=%.*s bytes_in=%llu bytes_out=%llu inbuf=%zu outbuf=%zu "
        "flags=",
        static_cast<unsigned long long>(conn.id), conn.fd, worker_id(),
        std::chrono::duration<double>(now - conn.created).count(),
        std::chrono::duration<double>(now - conn.last_active).count(),
        static_cast<unsigned long long>(conn.cmds),
        static_cast<int>(conn.last_verb.size()), conn.last_verb.data(),
        static_cast<unsigned long long>(conn.bytes_in),
        static_cast<unsigned long long>(conn.bytes_out), conn.in.size(),
        conn.out.size());
    std::string flags;
    if (static_cast<const void*>(&conn) == self) flags += "self,";
    if (conn.replica) flags += "replica,";
    if (conn.closing) flags += "closing,";
    if (conn.out.size() >= options_.max_write_buffer_bytes) {
      flags += "backpressured,";
    }
    if (flags.empty()) {
      *out += '-';
    } else {
      flags.pop_back();  // trailing comma
      *out += flags;
    }
    *out += kCrlf;
  }
}

std::string Server::Lane::ExecuteConns(const Connection* self) {
  // Runs quiesced (a barrier verb) and lists every lane's connections.
  size_t total = 0;
  for (const auto& lane : server_->lanes_) total += lane->connections_.size();
  std::string out = StringFormat("CONNS %zu", total) + std::string(kCrlf);
  for (const auto& lane : server_->lanes_) lane->AppendConnsTo(&out, self);
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::Lane::ExecuteSnapshot(const Request& req) {
  // The target is client-supplied: never let it name an arbitrary
  // filesystem location. Disabled unless a root is configured; when it
  // is, the path must stay strictly under it.
  if (options_.snapshot_root.empty()) {
    return "SERVER_ERROR snapshot disabled (no snapshot root configured)" +
           std::string(kCrlf);
  }
  if (req.dir.empty() || req.dir.front() == '/') {
    return "CLIENT_ERROR snapshot dir must be a relative path" +
           std::string(kCrlf);
  }
  for (size_t pos = 0; pos <= req.dir.size();) {
    const size_t slash = req.dir.find('/', pos);
    const size_t comp_end = slash == std::string::npos ? req.dir.size()
                                                       : slash;
    if (std::string_view(req.dir).substr(pos, comp_end - pos) == "..") {
      return "CLIENT_ERROR snapshot dir must not contain .." +
             std::string(kCrlf);
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  const std::string base = options_.snapshot_root + "/" + req.dir;
  for (size_t s = 0; s < engine_->num_shards(); ++s) {
    const std::string dir = base + StringFormat("/shard%zu", s);
    const Status st = core::SaveEngineSnapshot(engine_->shard(s), dir);
    if (!st.ok()) {
      return "SERVER_ERROR " + st.ToString() + std::string(kCrlf);
    }
  }
  return "OK" + std::string(kCrlf);
}

std::string Server::Lane::ExecuteCheckpoint() {
  if (options_.checkpointer == nullptr || streams_.empty()) {
    return "SERVER_ERROR checkpoint disabled (no wal configured)" +
           std::string(kCrlf);
  }
  const Status st = options_.checkpointer->Checkpoint(
      *engine_, options_.wal, server_->StreamNow());
  if (!st.ok()) {
    return "SERVER_ERROR " + st.ToString() + std::string(kCrlf);
  }
  server_->last_checkpoint_ = std::chrono::steady_clock::now();
  return "OK" + std::string(kCrlf);
}

uint64_t Server::Lane::ReplCursorFloor(size_t stream) const {
  uint64_t floor = UINT64_MAX;
  for (const auto& [fd, conn] : connections_) {
    if (conn.replica && conn.repl_stream == stream) {
      floor = std::min<uint64_t>(floor, conn.repl_next_seqno);
    }
  }
  return floor;
}

std::string Server::Lane::ExecuteCompact() {
  if (streams_.empty()) {
    return "SERVER_ERROR compaction disabled (no wal configured)" +
           std::string(kCrlf);
  }
  size_t segments_in = 0;
  size_t segments_out = 0;
  uint64_t records_dropped = 0;
  uint64_t bytes_reclaimed = 0;
  for (size_t s = 0; s < num_streams(); ++s) {
    wal::delta::CompactionOptions opts;
    // Frames an attached follower has not consumed yet must survive
    // verbatim: the preserve floor is the min resume cursor across every
    // lane's replication connections on this stream.
    opts.preserve_floor = UINT64_MAX;
    for (const auto& lane : server_->lanes_) {
      opts.preserve_floor =
          std::min(opts.preserve_floor, lane->ReplCursorFloor(s));
    }
    auto report = wal::delta::CompactSealed(streams_[s], opts);
    if (!report.ok()) {
      ADREC_LOG(kError) << "serve: wal compaction failed (stream " << s
                        << "): " << report.status().ToString();
      return "SERVER_ERROR " + report.status().ToString() +
             std::string(kCrlf);
    }
    if (!report.value().ran) continue;
    segments_in += report.value().segments_in;
    segments_out += report.value().segments_out;
    records_dropped += report.value().records_dropped;
    bytes_reclaimed += report.value().bytes_in - report.value().bytes_out;
  }
  server_->last_compact_ = std::chrono::steady_clock::now();
  if (segments_in > 0) {
    ADREC_LOG(kInfo) << "serve: compacted " << segments_in << " -> "
                     << segments_out << " sealed segments, dropped "
                     << records_dropped << " records, reclaimed "
                     << bytes_reclaimed << " bytes";
  }
  return "OK" + std::string(kCrlf);
}

std::string Server::Lane::ExecuteRepl(const Request& req, Connection* conn) {
  if (streams_.empty()) {
    return "SERVER_ERROR replication disabled (no wal configured)" +
           std::string(kCrlf);
  }
  // One replication connection per stream, and the follower's log must
  // have the leader's stream count: stream s replays into engine shard s
  // on both sides, so any other split would apply another shard's users.
  if (req.repl_streams != num_streams()) {
    return StringFormat("CLIENT_ERROR repl: follower has %zu wal "
                        "stream(s), this log has %zu",
                        req.repl_streams, num_streams()) +
           std::string(kCrlf);
  }
  if (req.repl_stream >= num_streams()) {
    return StringFormat("CLIENT_ERROR repl stream %zu out of range (log "
                        "has %zu streams)",
                        req.repl_stream, num_streams()) +
           std::string(kCrlf);
  }
  const size_t stream = req.repl_stream;
  // Handshake: from here on the connection is a one-way frame stream,
  // fed by PumpReplicas after each wave's durability barrier. The
  // follower's cursor is the last seqno it already holds.
  conn->replica = true;
  conn->repl_stream = stream;
  conn->repl_next_seqno = req.cursor + 1;
  conn->repl_hint = wal::CursorHint{};
  conn->repl_last_hb = std::chrono::steady_clock::now();
  size_t repl_conns = 0;
  for (const auto& [fd, c] : connections_) repl_conns += c.replica ? 1 : 0;
  g_repl_streams_->Set(static_cast<double>(repl_conns));
  ADREC_LOG(kInfo) << "serve: replication stream attached (stream "
                   << stream << ") at cursor " << req.cursor;
  return StringFormat("REPL OK %zu %llu", stream,
                      static_cast<unsigned long long>(req.cursor)) +
         std::string(kCrlf);
}

std::string Server::Lane::ExecutePromote() {
  // Runs quiesced (a barrier verb) and promotes the daemon once: every
  // lane's followers detach, the log seals, every lane opens for writes.
  if (options_.followers.empty()) {
    return "SERVER_ERROR not a follower (nothing to promote)" +
           std::string(kCrlf);
  }
  if (!server_->read_only_) return "OK" + std::string(kCrlf);  // idempotent
  for (replica::Follower* follower : options_.followers) follower->Detach();
  // Seal the replicated history: everything applied as a follower is
  // fdatasynced and closed into an immutable segment before the first
  // write of the new epoch can land. Every stream seals — promotion is a
  // log-wide epoch boundary, not a per-stream one.
  if (options_.wal != nullptr) {
    Status st = options_.wal->RotateAll();
    if (st.ok()) st = options_.wal->SyncAll();
    if (!st.ok()) {
      return "SERVER_ERROR promote seal failed: " + st.ToString() +
             std::string(kCrlf);
    }
  }
  server_->read_only_ = false;
  ADREC_LOG(kInfo) << "serve: promoted to leader (" << num_streams()
                   << " streams sealed), accepting writes";
  return "OK" + std::string(kCrlf);
}

void Server::Lane::PumpReplicas() {
  if (streams_.empty()) return;
  // Per-stream durability horizon, computed lazily: ship only what each
  // stream's barrier has released — flushed frames are complete on disk
  // and their replies (if any) are out, so a follower can never hold a
  // record the leader would deny. (flushed_seqno takes the stream's
  // mutex: fine, this reads at most num_streams locks per wave.)
  std::vector<uint64_t> limits(streams_.size(), 0);
  std::vector<bool> limit_known(streams_.size(), false);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [fd, conn] : connections_) {
    if (!conn.replica || conn.closing) continue;
    const size_t s = conn.repl_stream;
    if (!limit_known[s]) {
      limits[s] = streams_[s]->flushed_seqno();
      limit_known[s] = true;
    }
    const uint64_t limit = limits[s];
    // Backpressure: a stream that cannot drain keeps its cursor; the
    // log is the queue, so nothing is lost while it stalls.
    if (conn.out.size() < options_.max_write_buffer_bytes &&
        conn.repl_next_seqno <= limit) {
      auto batch = wal::ReadFrames(streams_[s]->dir(),
                                   conn.repl_next_seqno, limit,
                                   options_.repl_batch_bytes,
                                   &conn.repl_hint);
      if (!batch.ok()) {
        // Cursor below retention (or log corruption): this stream can
        // never be satisfied — tell it why and hang up; the follower
        // must re-seed from a checkpoint.
        ADREC_LOG(kWarning) << "serve: replication stream failed: "
                            << batch.status().ToString();
        conn.out += "SERVER_ERROR " + batch.status().ToString();
        conn.out += kCrlf;
        conn.closing = true;
        continue;
      }
      if (!batch.value().frames.empty()) {
        conn.out += batch.value().frames;
        conn.repl_next_seqno = batch.value().next_seqno;
        ctr_repl_bytes_shipped_->Inc(batch.value().frames.size());
      }
    }
    const double since_hb =
        std::chrono::duration<double>(now - conn.repl_last_hb).count();
    if (since_hb >= options_.repl_heartbeat_interval) {
      conn.out += StringFormat("REPL HB %llu",
                               static_cast<unsigned long long>(limit));
      conn.out += kCrlf;
      conn.repl_last_hb = now;
      ctr_repl_heartbeats_->Inc();
    }
  }
}

void Server::Lane::CommitWal() {
  if (!wal_dirty_) return;
  wal_dirty_ = false;
  const auto commit_t0 = std::chrono::steady_clock::now();
  Status first_error = Status::OK();
  for (size_t s = 0; s < streams_.size(); ++s) {
    if (!stream_dirty_[s]) continue;
    stream_dirty_[s] = false;
    const Status st = streams_[s]->Commit();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  if (!first_error.ok()) {
    // The replies for this batch were already formatted as OK; a failing
    // fdatasync here means acknowledged-but-maybe-lost. There is no way
    // to recall the replies, so make the breach loud.
    ADREC_LOG(kError) << "serve: wal commit failed: "
                      << first_error.ToString();
  }
  if (!wave_traces_.empty()) {
    // Group commit is a wave-level event: one fdatasync per dirty stream
    // covers every write of the batch. Each trace gets the same interval
    // as a retroactive span — the per-request view of the shared barrier.
    const auto commit_t1 = std::chrono::steady_clock::now();
    for (std::unique_ptr<obs::TraceBuilder>& trace : wave_traces_) {
      trace->AddSpan("wal.commit_wave", commit_t0, commit_t1);
      if (!first_error.ok()) {
        trace->SetOutcome(obs::TraceOutcome::kError);
        trace->SetReason("wal commit failed");
      }
      FinishTrace(std::move(trace));
    }
    wave_traces_.clear();
  }
}

void Server::Lane::MaybeCheckpoint() {
  if (options_.checkpointer == nullptr || streams_.empty() ||
      options_.checkpoint_interval <= 0.0) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  const double since =
      std::chrono::duration<double>(now - server_->last_checkpoint_).count();
  if (since < options_.checkpoint_interval) return;
  server_->last_checkpoint_ = now;
  // Checkpointing reads every shard: stop every lane, exactly like the
  // explicit `checkpoint` verb.
  server_->barrier_.Run(index_, [this] {
    const std::string reply = ExecuteCheckpoint();
    if (!StartsWith(reply, "OK")) {
      ADREC_LOG(kError) << "serve: periodic checkpoint failed: " << reply;
    }
  });
}

void Server::Lane::MaybeCompact() {
  if (streams_.empty() || options_.compact_interval <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  const double since =
      std::chrono::duration<double>(now - server_->last_compact_).count();
  if (since < options_.compact_interval) return;
  server_->last_compact_ = now;
  // Compaction rewrites every stream's sealed files and scans every
  // lane's connection table for replica cursors: stop every lane,
  // exactly like the explicit `compact` verb.
  server_->barrier_.Run(index_, [this] {
    const std::string reply = ExecuteCompact();
    if (!StartsWith(reply, "OK")) {
      ADREC_LOG(kError) << "serve: idle compaction failed: " << reply;
    }
  });
}

void Server::Lane::MaybeReport() {
  if (reporter_ == nullptr || !reporter_->Due()) return;
  // The merged scrape is only safe quiescent: stop every lane, like
  // MaybeCheckpoint.
  server_->barrier_.Run(index_, [this] { reporter_->Tick(); });
}

bool Server::Lane::WriteTo(Connection* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      ctr_bytes_out_->Inc(static_cast<uint64_t>(n));
      conn->bytes_out += static_cast<uint64_t>(n);
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_active = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // drain signal mid-send
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    CloseConnection(conn);  // EPIPE/ECONNRESET
    return false;
  }
  // A half-closed peer may still have complete pipelined lines buffered
  // in `in` (read before its EOF); those are owed responses, so only
  // close once nothing processable remains.
  if (conn->closing && conn->in.find('\n') == std::string::npos) {
    CloseConnection(conn);
    return false;
  }
  return true;
}

void Server::Lane::CloseConnection(Connection* conn) {
  const int fd = conn->fd;
  const bool was_replica = conn->replica;
  ::close(fd);
  connections_.erase(fd);
  g_active_->Set(static_cast<double>(connections_.size()));
  if (was_replica) {
    size_t repl_conns = 0;
    for (const auto& [f, c] : connections_) repl_conns += c.replica ? 1 : 0;
    g_repl_streams_->Set(static_cast<double>(repl_conns));
  }
}

void Server::Lane::CloseIdle() {
  if (options_.idle_timeout <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> idle;
  for (const auto& [fd, conn] : connections_) {
    // Replication streams are one-way by design: the follower never
    // sends another byte after the handshake, so "idle since last read"
    // is their steady state, not abandonment. Liveness comes from the
    // stream itself — a dead follower surfaces as EPIPE/ECONNRESET on
    // the next frame or heartbeat.
    if (conn.replica) continue;
    const double silent =
        std::chrono::duration<double>(now - conn.last_active).count();
    if (silent > static_cast<double>(options_.idle_timeout)) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    ctr_idle_closed_->Inc();
    CloseConnection(&connections_.at(fd));
  }
}

void Server::Lane::Run() {
  const auto drain_deadline_never = std::chrono::steady_clock::time_point::max();
  auto drain_deadline = drain_deadline_never;

  std::vector<pollfd> fds;
  std::vector<int> conn_fds;
  std::vector<replica::Follower*> polled_followers;
  for (;;) {
    if (draining_ && connections_.empty()) break;
    if (draining_ && std::chrono::steady_clock::now() > drain_deadline) {
      // Grace expired: drop whatever could not be flushed.
      while (!connections_.empty()) {
        CloseConnection(&connections_.begin()->second);
      }
      break;
    }

    fds.clear();
    conn_fds.clear();
    polled_followers.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    // Only lane 0 ever touches the listener.
    const bool listening = index_ == 0 && server_->listen_fd_ >= 0;
    const bool listen_polled =
        listening && !draining_ &&
        std::chrono::steady_clock::now() >= accept_pause_until_;
    if (listen_polled) fds.push_back({server_->listen_fd_, POLLIN, 0});
    // Follower mode: this lane's leader connections live in its poll set,
    // so replication applies on a serving thread, between waves.
    for (replica::Follower* follower : followers_) {
      if (follower->detached() || follower->fd() < 0) continue;
      short events = POLLIN;
      if (follower->want_write()) events |= POLLOUT;
      fds.push_back({follower->fd(), events, 0});
      polled_followers.push_back(follower);
    }
    bool has_repl_stream = false;
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      // Backpressured or closing connections are not read further.
      if (!conn.closing &&
          conn.out.size() < options_.max_write_buffer_bytes) {
        events |= POLLIN;
      }
      if (!conn.out.empty()) events |= POLLOUT;
      if (events == 0) events = POLLHUP;  // still notice resets
      fds.push_back({fd, events, 0});
      conn_fds.push_back(fd);
      has_repl_stream = has_repl_stream || conn.replica;
    }

    // Timeout: the finest of idle sweep, reporter cadence, drain grace.
    int timeout_ms = -1;
    if (options_.idle_timeout > 0) timeout_ms = 1000;
    if (reporter_ != nullptr) {
      const int r = static_cast<int>(options_.report_interval * 1000 / 2);
      timeout_ms = timeout_ms < 0 ? std::max(r, 10)
                                  : std::min(timeout_ms, std::max(r, 10));
    }
    if (listening && !draining_ && !listen_polled) {
      // Accepts are paused (descriptor exhaustion): wake soon enough to
      // resume the listener once the backoff lapses.
      timeout_ms = timeout_ms < 0 ? 100 : std::min(timeout_ms, 100);
    }
    if (options_.checkpointer != nullptr &&
        options_.checkpoint_interval > 0.0 && index_ == 0) {
      // Periodic checkpoints must fire even on an idle stream.
      timeout_ms = timeout_ms < 0 ? 1000 : std::min(timeout_ms, 1000);
    }
    for (replica::Follower* follower : followers_) {
      if (follower->detached()) continue;
      // Reconnect backoff and lag gauges are time-driven.
      const int f = follower->TickDelayMs();
      timeout_ms = timeout_ms < 0 ? f : std::min(timeout_ms, f);
    }
    if (has_repl_stream) {
      // Heartbeats to attached followers must fire on an idle stream.
      const int hb = std::max(
          50, static_cast<int>(options_.repl_heartbeat_interval * 500));
      timeout_ms = timeout_ms < 0 ? hb : std::min(timeout_ms, hb);
    }
    if (draining_) timeout_ms = 50;

    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      ADREC_LOG(kError) << "poll: " << std::strerror(errno);
      break;
    }

    size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    // The wake pipe multiplexes drain requests, socket adoption and
    // barriers; the flag, the queue and the barrier's generation say
    // which (possibly several).
    AdoptPending();
    if (server_->drain_requested_.load(std::memory_order_acquire) &&
        !draining_) {
      draining_ = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               options_.drain_timeout));
      if (listening) {
        // Close the listening socket immediately: leaving it open would
        // let the kernel keep accepting into the backlog, stranding
        // clients that will never be served.
        ::close(server_->listen_fd_);
        server_->listen_fd_ = -1;
      }
      ADREC_LOG(kInfo) << "serve: drain requested, "
                       << connections_.size() << " connections open";
    }
    ++idx;
    if (listen_polled) {
      if (!draining_ && (fds[idx].revents & (POLLIN | POLLERR))) {
        AcceptNew();
      }
      ++idx;
    }
    // Another lane's pending barrier parks this one here, between waves:
    // its previous wave is committed and it holds no shard lock.
    server_->barrier_.Arrive(index_);
    for (replica::Follower* follower : polled_followers) {
      if (fds[idx].revents != 0) follower->OnPollEvents(fds[idx].revents);
      ++idx;
    }
    for (replica::Follower* follower : followers_) {
      follower->Tick();
      // Replicated events drive this daemon's stream clock so time-less
      // `topk` on the replica answers at the replicated position.
      server_->BumpStreamClock(follower->max_event_time());
    }

    // Read + process every ready connection first — their WAL appends
    // stay deferred — then run ONE durability barrier for the whole wave
    // before any reply reaches a socket. This is what makes group commit
    // group: the wave shares a single fdatasync (per dirty stream)
    // instead of paying one per connection.
    for (size_t c = 0; c < conn_fds.size(); ++c, ++idx) {
      auto it = connections_.find(conn_fds[c]);
      if (it == connections_.end()) continue;  // closed earlier this round
      Connection* conn = &it->second;
      const short revents = fds[idx].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        CloseConnection(conn);
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        if (!ReadFrom(conn)) continue;
      }
      ProcessLines(conn);
    }
    // Durability before visibility: every deferred WAL append of the
    // wave (and every stream of a shard it touched) is committed before
    // any of the wave's replies can be written.
    CommitWal();
    // ... and replication before acknowledgement-chasing: the wave's
    // freshly durable frames fan out to attached followers in the same
    // pass that flushes the wave's replies.
    PumpReplicas();
    for (size_t c = 0; c < conn_fds.size(); ++c) {
      auto it = connections_.find(conn_fds[c]);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      // Flush-and-resume until quiescent. One pass is not enough: a
      // backpressured connection keeps complete pipelined lines in `in`,
      // and a peer waiting for those replies sends nothing more — no
      // POLLIN ever fires again. So whenever a write drains the buffer
      // back under the cap, resume consuming the pipeline right here
      // instead of waiting on poll (committing each resumed batch before
      // its replies flush).
      for (;;) {
        if (!conn->out.empty() || conn->closing) {
          if (!WriteTo(conn)) break;  // connection closed and erased
        }
        if (conn->out.size() >= options_.max_write_buffer_bytes) break;
        if (conn->in.find('\n') == std::string::npos) break;
        ProcessLines(conn);
        CommitWal();
      }
    }

    CloseIdle();
    if (!draining_ && index_ == 0) {
      MaybeCheckpoint();
      MaybeCompact();
      MaybeReport();
    }
    // Drain semantics: stop reading new requests, flush what is queued.
    if (draining_) {
      for (auto& [fd, conn] : connections_) conn.closing = true;
      std::vector<int> done;
      for (auto& [fd, conn] : connections_) {
        if (conn.out.empty()) done.push_back(fd);
      }
      for (int fd : done) CloseConnection(&connections_.at(fd));
    }
  }
  // Leave the rendezvous set so another lane's in-flight barrier never
  // waits on this thread; Server::Run syncs the log after every lane
  // has joined.
  server_->barrier_.Deregister(index_);
}

}  // namespace adrec::serve
