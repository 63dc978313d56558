#include "replica/follower.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "serve/protocol.h"
#include "wal/apply.h"
#include "wal/record.h"

namespace adrec::replica {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

bool ParseU64Field(std::string_view field, uint64_t* out) {
  const std::string s(field);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || s.empty() || s[0] == '-') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

Follower::Follower(core::ShardedEngine* engine, wal::ShardedWal* wal,
                   size_t stream, FollowerOptions options)
    : engine_(engine),
      stream_(stream),
      streams_(wal->num_streams()),
      log_(wal->stream(stream)),
      options_(std::move(options)),
      applied_seqno_(log_->last_seqno()),
      next_attempt_(std::chrono::steady_clock::now()) {
  ADREC_CHECK(engine_ != nullptr);
  ADREC_CHECK(stream_ < streams_);
  ADREC_CHECK(streams_ == 1 || streams_ == engine_->num_shards());
  // Per-stream followers carry the stream index in their metric names so
  // the N lag gauges survive a registry merge side by side.
  const std::string prefix = streams_ == 1
                                 ? std::string("replica.")
                                 : StringFormat("replica.s%zu.", stream_);
  g_lag_records_ = metrics_.GetGauge(prefix + "lag_records");
  g_lag_ms_ = metrics_.GetGauge(prefix + "lag_ms");
  g_applied_seqno_ = metrics_.GetGauge(prefix + "applied_seqno");
  g_leader_seqno_ = metrics_.GetGauge(prefix + "leader_seqno");
  g_connected_ = metrics_.GetGauge(prefix + "connected");
  ctr_bytes_received_ = metrics_.GetCounter(prefix + "bytes_received");
  ctr_records_applied_ = metrics_.GetCounter(prefix + "records_applied");
  ctr_heartbeats_ = metrics_.GetCounter(prefix + "heartbeats");
  ctr_reconnects_ = metrics_.GetCounter(prefix + "reconnects");
  ctr_apply_errors_ = metrics_.GetCounter(prefix + "apply_errors");
  g_applied_seqno_->Set(static_cast<double>(applied_seqno_));
}

std::string Follower::HandshakeLine() const {
  return serve::FormatReplCmd(stream_, streams_, log_->last_seqno()) + "\n";
}

Follower::~Follower() {
  if (fd_ >= 0) ::close(fd_);
}

bool Follower::want_write() const {
  return fd_ >= 0 && (state_ == State::kConnecting || !out_.empty());
}

void Follower::StartConnect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0 || !SetNonBlocking(fd_)) {
    CloseAndBackoff(StringFormat("socket: %s", std::strerror(errno)));
    return;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseAndBackoff("bad leader address " + options_.host);
    return;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    state_ = State::kHandshake;
    out_ = HandshakeLine();
    return;
  }
  if (errno == EINPROGRESS) {
    state_ = State::kConnecting;
    return;
  }
  CloseAndBackoff(StringFormat("connect %s:%u: %s", options_.host.c_str(),
                               options_.port, std::strerror(errno)));
}

void Follower::CloseAndBackoff(const std::string& why) {
  const bool was_streaming = state_ == State::kStreaming;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
  out_.clear();
  pending_tips_.clear();
  state_ = State::kDisconnected;
  g_connected_->Set(0.0);
  if (detached_) return;
  backoff_ = backoff_ <= 0.0
                 ? options_.backoff_initial
                 : std::min(backoff_ * 2.0, options_.backoff_max);
  next_attempt_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(backoff_));
  ctr_reconnects_->Inc();
  const std::string detail = StringFormat(
      "replica: leader %s:%u unavailable (%s), retrying in %.1fs",
      options_.host.c_str(), options_.port, why.c_str(), backoff_);
  if (was_streaming) {
    ADREC_LOG(kWarning) << detail;
  } else {
    ADREC_LOG(kInfo) << detail;
  }
  UpdateLagGauges();
}

bool Follower::FlushOut() {
  while (!out_.empty()) {
    const ssize_t n =
        ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    CloseAndBackoff(StringFormat("send: %s", std::strerror(errno)));
    return false;
  }
  return true;
}

bool Follower::ReadInput() {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      ctr_bytes_received_->Inc(static_cast<uint64_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) {
      CloseAndBackoff("leader closed the stream");
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    CloseAndBackoff(StringFormat("recv: %s", std::strerror(errno)));
    return false;
  }
}

void Follower::HandleControlLine(std::string_view line) {
  const auto fields = SplitString(line, ' ');
  if (fields.size() >= 2 && fields[1] == "OK") {
    if (state_ == State::kHandshake) {
      state_ = State::kStreaming;
      backoff_ = 0.0;
      g_connected_->Set(1.0);
      ADREC_LOG(kInfo) << "replica: streaming from " << options_.host << ":"
                       << options_.port << " at cursor "
                       << applied_seqno_;
    }
    return;
  }
  if (fields.size() >= 3 && fields[1] == "HB") {
    uint64_t tip = 0;
    if (!ParseU64Field(fields[2], &tip)) return;
    ctr_heartbeats_->Inc();
    if (tip > leader_tip_) leader_tip_ = tip;
    if (tip > applied_seqno_ &&
        (pending_tips_.empty() || tip > pending_tips_.back().first)) {
      pending_tips_.emplace_back(tip, std::chrono::steady_clock::now());
    }
    UpdateLagGauges();
    return;
  }
  // Unknown control line: tolerated for forward compatibility.
}

void Follower::ApplyEvent(const feed::FeedEvent& event) {
  std::unique_lock<std::mutex> lock;
  if (apply_lock_ != nullptr) {
    lock = std::unique_lock<std::mutex>(*apply_lock_);
  }
  // Pre-apply, so an addel observer can still look up the doomed ad's
  // metadata in the store (the server's topk cache needs its targeting
  // to compute invalidation fan-out).
  if (apply_observer_) apply_observer_(event);
  // The same apply rule as crash recovery: re-insertion and
  // double-deletion are benign — the leader's log may overlap what a
  // checkpoint already restored.
  const Status st =
      wal::ApplyLoggedEvent(engine_, stream_, streams_, event);
  if (!st.ok()) {
    ctr_apply_errors_->Inc();
    ADREC_LOG(kError) << "replica: apply failed: " << st.ToString();
  }
  if (event.time > max_event_time_) max_event_time_ = event.time;
}

void Follower::ProcessInput() {
  std::vector<feed::FeedEvent> batch;
  /// Parallel to `batch`: the per-frame traces (null when tracing is
  /// off). Held open until after the batch commit so the shared barrier
  /// is attributed to every frame it made durable — same shape as the
  /// serving daemon's wave traces.
  std::vector<std::unique_ptr<obs::TraceBuilder>> traces;
  obs::TraceCollector* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  size_t start = 0;
  std::string die_why;
  bool die = false;

  while (start < in_.size()) {
    const size_t nl = in_.find('\n', start);
    if (nl == std::string::npos) {
      if (in_.size() - start > options_.max_line_bytes) {
        die = true;
        die_why = "oversized replication line";
      }
      break;
    }
    size_t end = nl;
    if (end > start && in_[end - 1] == '\r') --end;
    const std::string_view line(in_.data() + start, end - start);
    start = nl + 1;

    if (StartsWith(line, "REPL ")) {
      HandleControlLine(line);
      continue;
    }
    if (state_ != State::kStreaming) {
      // The handshake was refused (READONLY leaderless target, cursor
      // below retention, wal disabled, ...). The reply text says why.
      die = true;
      die_why = "handshake refused: " + std::string(line);
      break;
    }
    auto record = wal::DecodeFrame(line);
    if (!record.ok()) {
      die = true;
      die_why = "bad frame: " + record.status().message();
      break;
    }
    const wal::Record& r = record.value();
    const uint64_t expected = applied_seqno_ + batch.size() + 1;
    if (r.seqno != expected) {
      die = true;
      die_why = StringFormat("stream seqno %llu, expected %llu",
                             static_cast<unsigned long long>(r.seqno),
                             static_cast<unsigned long long>(expected));
      break;
    }
    auto event = wal::DecodeEventPayload(r.payload);
    if (!event.ok()) {
      die = true;
      die_why = "bad payload: " + event.status().message();
      break;
    }
    // A per-shard stream must only carry its own shard's users: refuse a
    // foreign frame before it reaches the local log, where recovery
    // would trip over it on every restart.
    const Status routed =
        wal::CheckStreamRouting(*engine_, stream_, streams_, event.value());
    if (!routed.ok()) {
      die = true;
      die_why = "foreign frame: " + routed.message();
      break;
    }
    std::unique_ptr<obs::TraceBuilder> trace;
    if (tracing) {
      trace = trace_pool_.Acquire();
      trace->Start(tracer->NextTraceId(), r.payload);
    }
    // Durability before visibility: the frame goes to the follower's own
    // log (deferred; committed below, before any engine mutation).
    const uint32_t append_span =
        trace != nullptr ? trace->StartSpan("wal.append") : 0;
    auto seqno = log_->AppendDeferred(r.payload);
    if (trace != nullptr) trace->EndSpan(append_span);
    if (!seqno.ok()) {
      die = true;
      die_why = "local wal append failed: " + seqno.status().ToString();
      if (trace != nullptr) {
        trace->SetOutcome(obs::TraceOutcome::kError);
        trace->SetReason(die_why);
        tracer->Finish(trace.get());
        trace_pool_.Release(std::move(trace));
      }
      break;
    }
    batch.push_back(std::move(event).value());
    traces.push_back(std::move(trace));
    if (r.seqno > leader_tip_) leader_tip_ = r.seqno;
  }
  in_.erase(0, start);

  if (!batch.empty()) {
    const auto commit_t0 = std::chrono::steady_clock::now();
    const Status st = log_->Commit();
    const auto commit_t1 = std::chrono::steady_clock::now();
    if (!st.ok()) {
      // Loud, like the serving daemon: records already streamed cannot
      // be un-received, and the leader holds them durably anyway.
      ADREC_LOG(kError) << "replica: local wal commit failed: "
                        << st.ToString();
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      obs::TraceBuilder* trace = i < traces.size() ? traces[i].get()
                                                   : nullptr;
      if (trace != nullptr) {
        trace->AddSpan("wal.commit_wave", commit_t0, commit_t1);
        if (!st.ok()) {
          trace->SetOutcome(obs::TraceOutcome::kError);
          trace->SetReason("local wal commit failed");
        }
      }
      const uint32_t apply_span =
          trace != nullptr ? trace->StartSpan("replica.apply") : 0;
      {
        // Engine stage probes land under replica.apply.
        obs::ScopedActiveTrace active(trace);
        ApplyEvent(batch[i]);
      }
      if (trace != nullptr) {
        trace->EndSpan(apply_span);
        tracer->Finish(trace);
        trace_pool_.Release(std::move(traces[i]));
      }
    }
    applied_seqno_ += batch.size();
    ctr_records_applied_->Inc(batch.size());
    while (!pending_tips_.empty() &&
           pending_tips_.front().first <= applied_seqno_) {
      pending_tips_.pop_front();
    }
    UpdateLagGauges();
  }
  if (die) CloseAndBackoff(die_why);
}

void Follower::OnPollEvents(short revents) {
  if (fd_ < 0) return;
  if (state_ == State::kConnecting &&
      (revents & (POLLOUT | POLLERR | POLLHUP))) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      CloseAndBackoff(StringFormat("connect %s:%u: %s",
                                   options_.host.c_str(), options_.port,
                                   std::strerror(err != 0 ? err : errno)));
      return;
    }
    state_ = State::kHandshake;
    out_ = HandshakeLine();
  }
  if (!out_.empty() && !FlushOut()) return;
  if (revents & (POLLIN | POLLHUP)) {
    if (!ReadInput()) return;
    ProcessInput();
  }
  if (fd_ >= 0 && (revents & (POLLERR | POLLNVAL))) {
    CloseAndBackoff("socket error");
  }
}

void Follower::Tick() {
  if (detached_) return;
  if (state_ == State::kDisconnected &&
      std::chrono::steady_clock::now() >= next_attempt_) {
    StartConnect();
  }
  UpdateLagGauges();
}

int Follower::TickDelayMs() const {
  if (detached_) return 1000000;
  if (state_ == State::kDisconnected) {
    const double ms = std::chrono::duration<double, std::milli>(
                          next_attempt_ - std::chrono::steady_clock::now())
                          .count();
    return std::clamp(static_cast<int>(ms) + 1, 10, 1000);
  }
  // Streaming/connecting: wake often enough to keep the lag gauges and
  // heartbeat bookkeeping fresh.
  return 250;
}

void Follower::Detach() {
  detached_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
  out_.clear();
  pending_tips_.clear();
  state_ = State::kDisconnected;
  g_connected_->Set(0.0);
  UpdateLagGauges();
}

FollowerLag Follower::Lag() const {
  FollowerLag lag;
  lag.records =
      leader_tip_ > applied_seqno_ ? leader_tip_ - applied_seqno_ : 0;
  if (!pending_tips_.empty()) {
    lag.ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() -
                 pending_tips_.front().second)
                 .count();
  }
  return lag;
}

void Follower::UpdateLagGauges() {
  const FollowerLag lag = Lag();
  g_lag_records_->Set(static_cast<double>(lag.records));
  g_lag_ms_->Set(lag.ms);
  g_applied_seqno_->Set(static_cast<double>(applied_seqno_));
  g_leader_seqno_->Set(static_cast<double>(leader_tip_));
}

}  // namespace adrec::replica
