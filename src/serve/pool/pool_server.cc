#include "serve/pool/pool_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "replica/follower.h"
#include "wal/sharded_wal.h"

namespace adrec::serve::pool {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(StringFormat("fcntl(O_NONBLOCK): %s",
                                         std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

PoolServer::PoolServer(core::ShardedEngine* engine, ServerOptions base,
                       size_t workers)
    : engine_(engine), base_(std::move(base)) {
  ADREC_CHECK(engine_ != nullptr);
  ADREC_CHECK(workers >= 2);  // one worker is just serve::Server
  // The pool's cross-shard story depends on per-shard log streams; a
  // single shared stream would serialise every worker's commit barrier
  // on one file (and recovery on one replay). Allow no log at all
  // (durability off) or exactly one stream per shard.
  if (base_.wal != nullptr) {
    ADREC_CHECK(base_.wal->num_streams() == engine_->num_shards());
  }
  ADREC_CHECK(base_.topk_cache.capacity == 0);

  ctx_ = std::make_unique<PoolContext>(workers, engine_->num_shards());

  // Followers are indexed by WAL stream (= shard) and dealt round-robin
  // like the shards; each applies under its shard's lock, because every
  // worker reads every shard.
  std::vector<std::vector<replica::Follower*>> lane_followers(workers);
  bool any_follower = false;
  for (size_t s = 0; s < base_.followers.size(); ++s) {
    if (base_.followers[s] == nullptr) continue;
    any_follower = true;
    base_.followers[s]->set_apply_lock(&ctx_->shard_locks[s]);
    lane_followers[s % workers].push_back(base_.followers[s]);
  }

  for (size_t lane = 0; lane < workers; ++lane) {
    ServerOptions o = base_;
    o.pool = ctx_.get();
    o.lane = lane;
    o.followers = std::move(lane_followers[lane]);
    // Read-only is pool-wide: a worker with no follower of its own must
    // still refuse writes while its siblings replicate (promote — a
    // barrier op — clears all of them together).
    o.start_read_only = any_follower;
    // Workers never listen; the acceptor deals sockets to them.
    o.port = 0;
    servers_.push_back(std::make_unique<Server>(engine_, std::move(o)));
    ctx_->servers.push_back(servers_.back().get());
  }

  ctx_->merged_snapshot = [this] {
    obs::MetricsSnapshot snapshot;
    for (const auto& server : servers_) {
      snapshot.MergeFrom(server->metrics().Snapshot());
    }
    MergeSharedMetrics(*engine_, base_, &snapshot);
    return snapshot;
  };
}

PoolServer::~PoolServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

obs::MetricsSnapshot PoolServer::MergedSnapshot() const {
  return ctx_->merged_snapshot();
}

Status PoolServer::Start() {
  if (pipe(wake_fds_) != 0) {
    return Status::Internal(StringFormat("pipe: %s", std::strerror(errno)));
  }
  ADREC_RETURN_NOT_OK(SetNonBlocking(wake_fds_[0]));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StringFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(base_.port);
  if (inet_pton(AF_INET, base_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address " + base_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal(StringFormat("bind %s:%u: %s",
                                         base_.host.c_str(), base_.port,
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

  for (const auto& server : servers_) {
    ADREC_RETURN_NOT_OK(server->Start());
  }
  return Status::OK();
}

void PoolServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  const char b = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
}

void PoolServer::Run() {
  ADREC_CHECK(listen_fd_ >= 0);
  threads_.reserve(servers_.size());
  for (const auto& server : servers_) {
    threads_.emplace_back([s = server.get()] { s->Run(); });
  }
  ADREC_LOG(kInfo) << "serve: pool accepting on port " << port_ << " with "
                   << servers_.size() << " workers";

  // The acceptor: accept, deal round-robin, repeat. Per-worker shed
  // (max_connections) happens at adoption on the worker, where the
  // connection count lives.
  pollfd fds[2];
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire)) break;
    fds[0] = {wake_fds_[0], POLLIN, 0};
    fds[1] = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ADREC_LOG(kError) << "serve: pool acceptor poll: "
                        << std::strerror(errno);
      break;
    }
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
      continue;  // re-check the drain flag
    }
    if (fds[1].revents & (POLLIN | POLLERR)) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR || errno == ECONNABORTED) continue;
          ADREC_LOG(kWarning) << "serve: pool accept: "
                              << std::strerror(errno);
          break;
        }
        servers_[next_lane_]->AdoptSocket(fd);
        next_lane_ = (next_lane_ + 1) % servers_.size();
      }
    }
  }

  // Drain: stop accepting first (close the listener so the kernel stops
  // queueing clients nobody will serve), then drain every worker and
  // wait them out.
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (const auto& server : servers_) server->RequestDrain();
  for (std::thread& t : threads_) t.join();
  threads_.clear();

  if (base_.wal != nullptr) {
    // Final durability barrier, once, after every worker stopped (pool
    // workers skip their own final sync; the streams are shared).
    const Status st = base_.wal->SyncAll();
    if (!st.ok()) {
      ADREC_LOG(kError) << "serve: final pool wal sync failed: "
                        << st.ToString();
    }
  }
  ADREC_LOG(kInfo) << "serve: pool drained, acceptor exiting";
}

}  // namespace adrec::serve::pool
