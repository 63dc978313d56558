#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>

#include "daemon.h"
#include "reply.h"
#include "serve/client.h"

namespace adrec::e2e {

namespace {

constexpr int64_t kReplyTimeoutNs = 20'000'000'000;
constexpr int64_t kNever = INT64_MAX;
// Waking from a sleep costs this loop tens of microseconds on a virtual
// machine, as much as a cached topk takes, so it spins: from this long
// before a send is due, and while replies are due. Replies are due until
// the daemon has made no progress for kStallNs; then it sleeps, so that
// its spinning does not compete with a long analysis for the CPU.
constexpr int64_t kSpinAheadNs = 100'000;
constexpr int64_t kStallNs = 1'000'000;

int Connect(uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

/// One socket of the load. Sends its ops (on schedule or back to back),
/// reads replies as they arrive and matches them to ops in order — the
/// protocol answers each connection in request order.
class LoadGenerator::Connection {
 public:
  Connection(uint8_t id, uint16_t port, AdLiveness* liveness,
             uint32_t max_user)
      : id_(id), liveness_(liveness), max_user_(max_user) {
    fd_ = Connect(port, &error_);
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Drives this connection's ops of [mode.begin, end).
  LoadResult Run(const std::vector<Op>& ops, size_t end, const Mode& mode,
                  std::vector<OpRecord>* records) {
    // The default 50 us timer slack would make every scheduled wake-up
    // late by more than a cached topk takes.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    ops_ = &ops;
    records_ = records;
    mode_ = mode;
    end_ = end;
    next_ = Seek(mode.begin);
    result_ = LoadResult{};
    if (fd_ < 0) {
      Abort(NowNs(), error_);
    } else {
      Loop();
    }
    return result_;
  }

 private:
  size_t Seek(size_t i) const {
    while (i < end_ && (*ops_)[i].conn % 2 != id_) ++i;
    return i;
  }

  int64_t Due(size_t op) const {
    return mode_.start_ns +
           static_cast<int64_t>(static_cast<double>(op - mode_.begin) *
                                1e9 / mode_.rate);
  }

  bool scheduled() const { return mode_.rate > 0; }

  bool MaySend(int64_t now) const {
    if (next_ >= end_) return false;
    if (scheduled()) return Due(next_) <= now;
    return inflight_.size() < mode_.window;
  }

  void Loop() {
    for (;;) {
      const int64_t now = NowNs();
      while (MaySend(now)) {
        Send(next_, now);
        next_ = Seek(next_ + 1);
      }
      if (!Flush()) return;
      const bool more = next_ < end_;
      if (!more && inflight_.empty()) return;

      int64_t wake = kNever;
      if (more && scheduled()) wake = Due(next_);
      if (!inflight_.empty()) {
        const int64_t expiry =
            (*records_)[inflight_.front()].sent_ns + kReplyTimeoutNs;
        if (now >= expiry) {
          Abort(now, "no reply within 20 s");
          return;
        }
        wake = std::min(wake, expiry);
      }
      int64_t wait = 0;
      const bool reply_due =
          !inflight_.empty() && now - progress_ns_ < kStallNs;
      if (!reply_due && wake - now > kSpinAheadNs) {
        wait = std::max<int64_t>(0, wake - kSpinAheadNs - NowNs());
      }
      const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                        static_cast<long>(wait % 1'000'000'000)};
      pollfd p{fd_,
               static_cast<short>(POLLIN |
                                  (out_.size() > out_off_ ? POLLOUT : 0)),
               0};
      if (ppoll(&p, 1, &ts, nullptr) < 0 && errno != EINTR) {
        Abort(NowNs(), std::string("ppoll: ") + std::strerror(errno));
        return;
      }
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !Read()) {
        return;
      }
    }
  }

  void Send(size_t op, int64_t now) {
    const Op& o = (*ops_)[op];
    if (o.kind == OpKind::kAdPut) liveness_->PutSent(o.ad, now);
    out_ += o.line;
    out_ += '\n';
    (*records_)[op].sent_ns = now;
    if (inflight_.empty()) progress_ns_ = now;
    inflight_.push_back(op);
    ++result_.sent;
  }

  bool Flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;
      } else if (errno != EINTR) {
        Abort(NowNs(), std::string("send: ") + std::strerror(errno));
        return false;
      }
    }
    out_.clear();
    out_off_ = 0;
    return true;
  }

  bool Read() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Abort(NowNs(), n == 0 ? "connection closed by adrecd"
                            : std::string("recv: ") + std::strerror(errno));
      return false;
    }
    const int64_t now = NowNs();
    size_t pos = 0;
    Reply reply;
    while (!inflight_.empty()) {
      const size_t used = TakeReply(std::string_view(in_).substr(pos), &reply);
      if (used == 0) break;
      pos += used;
      const size_t op = inflight_.front();
      inflight_.pop_front();
      (*records_)[op].done_ns = now;
      result_.last_done_ns = now;
      progress_ns_ = now;
      Judge(op, reply);
    }
    in_.erase(0, pos);
    return true;
  }

  void Judge(size_t op, const Reply& reply) {
    const Op& o = (*ops_)[op];
    OpRecord& rec = (*records_)[op];
    std::string problem = CheckShape(o, reply);
    if (problem.empty() && reply.kind == Reply::Kind::kList) {
      for (const auto& [id, score] : reply.items) {
        if (o.kind == OpKind::kTopK &&
            !liveness_->MayAppear(id, rec.sent_ns, rec.done_ns)) {
          problem = "ad " + std::to_string(id) + " is not live";
        } else if (o.kind == OpKind::kMatch && id >= max_user_) {
          problem = "unknown user " + std::to_string(id);
        }
      }
    }
    if (!problem.empty()) {
      rec.status = OpRecord::Status::kInvalid;
      ++result_.invalid;
      Note(o, problem + " in reply '" + reply.head + "'");
    } else if (reply.kind == Reply::Kind::kFailure) {
      rec.status = OpRecord::Status::kFailed;
      ++result_.failed;
      Note(o, "replied '" + reply.head + "'");
    } else {
      rec.status = OpRecord::Status::kOk;
      ++result_.ok;
      if (o.kind == OpKind::kAdDel) liveness_->DeleteAcked(o.ad, rec.done_ns);
    }
  }

  void Note(const Op& o, const std::string& what) {
    if (!result_.first_problem.empty()) return;
    result_.first_problem = std::string(OpKindName(o.kind)) + " '" +
                            o.line.substr(0, 80) + "': " + what;
  }

  /// A dead or stuck connection cannot be resynchronised: it stays
  /// closed, every op in flight fails, and so does every op not yet
  /// sent.
  void Abort(int64_t now, const std::string& why) {
    if (result_.first_problem.empty()) result_.first_problem = why;
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
      error_ = "connection unusable after: " + why;
    }
    for (const size_t op : inflight_) {
      (*records_)[op].status = OpRecord::Status::kFailed;
      (*records_)[op].done_ns = now;
      ++result_.failed;
    }
    inflight_.clear();
    for (; next_ < end_; next_ = Seek(next_ + 1)) {
      (*records_)[next_].status = OpRecord::Status::kFailed;
      ++result_.sent;
      ++result_.failed;
    }
  }

  const uint8_t id_;
  AdLiveness* const liveness_;
  const uint32_t max_user_;
  int fd_ = -1;
  std::string error_;
  std::deque<size_t> inflight_;
  int64_t progress_ns_ = 0;  // the last reply, or the send that ended idling
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;

  // The current call.
  const std::vector<Op>* ops_ = nullptr;
  std::vector<OpRecord>* records_ = nullptr;
  Mode mode_;
  size_t end_ = 0;
  size_t next_ = 0;
  LoadResult result_;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

AdLiveness::AdLiveness(size_t initial_ads, size_t total_ads)
    : put_sent_(new std::atomic<int64_t>[total_ads]),
      delete_acked_(new std::atomic<int64_t>[total_ads]),
      total_(total_ads) {
  for (size_t a = 0; a < total_ads; ++a) {
    put_sent_[a].store(a < initial_ads ? INT64_MIN : kNever);
    delete_acked_[a].store(kNever);
  }
}

void AdLiveness::PutSent(uint32_t ad, int64_t ns) {
  if (ad < total_) put_sent_[ad].store(ns, std::memory_order_relaxed);
}

void AdLiveness::DeleteAcked(uint32_t ad, int64_t ns) {
  if (ad < total_) delete_acked_[ad].store(ns, std::memory_order_relaxed);
}

bool AdLiveness::MayAppear(uint32_t ad, int64_t sent_ns,
                           int64_t done_ns) const {
  return ad < total_ &&
         put_sent_[ad].load(std::memory_order_relaxed) <= done_ns &&
         delete_acked_[ad].load(std::memory_order_relaxed) >= sent_ns;
}

LoadGenerator::LoadGenerator(uint16_t port, AdLiveness* liveness,
                             uint32_t max_user) {
  for (size_t c = 0; c < 2; ++c) {
    conns_.push_back(std::make_unique<Connection>(static_cast<uint8_t>(c),
                                                  port, liveness, max_user));
  }
}

LoadGenerator::~LoadGenerator() = default;

LoadResult LoadGenerator::Open(const std::vector<Op>& ops, size_t begin,
                                size_t end, double rate, int64_t start_ns,
                                std::vector<OpRecord>* records) {
  Mode mode;
  mode.rate = rate;
  mode.start_ns = start_ns;
  mode.begin = begin;
  return Run(ops, end, mode, records);
}

LoadResult LoadGenerator::Closed(const std::vector<Op>& ops, size_t begin,
                                  size_t end, size_t window,
                                  std::vector<OpRecord>* records) {
  Mode mode;
  mode.begin = begin;
  mode.window = window;
  return Run(ops, end, mode, records);
}

LoadResult LoadGenerator::Run(const std::vector<Op>& ops, size_t end,
                               const Mode& mode,
                               std::vector<OpRecord>* records) {
  std::vector<LoadResult> results(conns_.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns_.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = conns_[c]->Run(ops, end, mode, records);
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  for (const LoadResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.failed += r.failed;
    total.invalid += r.invalid;
    total.last_done_ns = std::max(total.last_done_ns, r.last_done_ns);
    if (total.first_problem.empty()) total.first_problem = r.first_problem;
  }
  return total;
}

Status WriteSeedLog(const std::string& adrecd, const WorkloadSpec& spec,
                    const Inputs& inputs, const std::string& wal_dir,
                    const std::string& log_path) {
  auto started = Daemon::Start(
      adrecd, DaemonFlags(spec, inputs.data_dir, wal_dir, false), log_path);
  if (!started.ok()) return started.status();
  Daemon& daemon = *started.value();
  serve::Client client;
  ADREC_RETURN_NOT_OK(client.Connect("127.0.0.1", daemon.port()));
  auto reply = client.Command("checkpoint");
  if (!reply.ok()) return reply.status();
  if (reply.value() != "OK") {
    return Status::Internal("checkpoint replied '" + reply.value() + "'");
  }
  client.Quit();

  AdLiveness live(inputs.initial_ads, inputs.total_ads);
  std::vector<OpRecord> records(inputs.seed_tail.size());
  LoadGenerator load(daemon.port(), &live,
                     static_cast<uint32_t>(spec.users));
  const LoadResult r = load.Closed(inputs.seed_tail, 0,
                                    inputs.seed_tail.size(), /*window=*/32,
                                    &records);
  if (r.ok != inputs.seed_tail.size()) {
    return Status::Internal("seed tail: " + r.first_problem);
  }
  return daemon.Stop();
}

}  // namespace adrec::e2e
