// The replication wiring, in process and over real sockets: a leader
// Server streams its WAL to a follower Server whose replica::Follower
// runs inside the follower's event loop. Covers catch-up + live tail
// convergence, the READONLY gate across the whole verb table, the
// promote flow, the replica.* lag gauges in the Prometheus exposition,
// the refusal of a follower whose log has another stream count, and the
// client's automatic reconnect across a daemon restart.

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "feed/workload.h"
#include "replica/follower.h"
#include "serve/client.h"
#include "wal/checkpoint.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"

namespace adrec::serve {
namespace {

/// One in-process daemon: engine + WAL + server (+ follower when it
/// replicates), the same wiring examples/adrecd.cpp does.
struct Daemon {
  /// Each in-process daemon generates its own workload (same options →
  /// identical deterministic KB), as two real adrecd processes would:
  /// the workload owns the Analyzer whose Vocabulary every analyzed
  /// tweet interns into, and that structure is single-writer —
  /// per-daemon, not per-process-pair.
  feed::Workload workload;
  std::string wal_dir;
  std::unique_ptr<wal::CheckpointManager> checkpointer;
  std::unique_ptr<wal::ShardedWal> wal;
  std::unique_ptr<core::ShardedEngine> engine;
  std::vector<std::unique_ptr<replica::Follower>> followers;
  std::unique_ptr<Server> server;
  std::thread thread;

  void Stop() {
    if (server) {
      server->RequestDrain();
      if (thread.joinable()) thread.join();
      server.reset();
    }
    followers.clear();
    wal.reset();
  }
  ~Daemon() { Stop(); }
};

class ServeReplicaTest : public ::testing::Test {
 protected:
  ServeReplicaTest() {
    base_dir_ =
        (std::filesystem::temp_directory_path() /
         ("adrec_servereplica_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    std::filesystem::remove_all(base_dir_);
    std::filesystem::create_directories(base_dir_);

    opts_.seed = 616;
    opts_.num_users = 12;
    opts_.num_places = 8;
    opts_.num_ads = 3;
    opts_.days = 2;
    workload_ = feed::GenerateWorkload(opts_);
  }
  ~ServeReplicaTest() override { std::filesystem::remove_all(base_dir_); }

  /// Starts a daemon: recovery, WAL, optionally one follower of
  /// `leader_port` per log stream, then the server loop on a background
  /// thread. `streams` is both the engine shard and WAL stream count.
  void StartDaemon(Daemon* d, const std::string& tag,
                   uint16_t leader_port = 0, uint16_t fixed_port = 0,
                   size_t streams = 1) {
    d->workload = feed::GenerateWorkload(opts_);
    d->wal_dir = base_dir_ + "/" + tag;
    d->checkpointer = std::make_unique<wal::CheckpointManager>(d->wal_dir);
    d->engine = std::make_unique<core::ShardedEngine>(
        d->workload.kb, d->workload.slots, streams);
    auto recovered = d->checkpointer->Recover(d->engine.get(), streams);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;
    wal_options.shards = streams;
    auto opened = wal::ShardedWal::Open(d->wal_dir, wal_options,
                                        recovered.value().stream_next_seqnos);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    d->wal = std::move(opened).value();

    ServerOptions options;
    options.port = fixed_port;
    options.wal = d->wal.get();
    options.checkpointer = d->checkpointer.get();
    options.repl_heartbeat_interval = 0.1;  // fast lag_ms resolution
    if (leader_port != 0) {
      replica::FollowerOptions fopts;
      fopts.host = "127.0.0.1";
      fopts.port = leader_port;
      fopts.backoff_initial = 0.05;
      for (size_t s = 0; s < streams; ++s) {
        d->followers.push_back(std::make_unique<replica::Follower>(
            d->engine.get(), d->wal.get(), s, fopts));
        options.followers.push_back(d->followers.back().get());
      }
    }
    d->server = std::make_unique<Server>(d->engine.get(), options);
    if (recovered.value().max_event_time > 0) {
      d->server->SeedStreamClock(recovered.value().max_event_time);
    }
    ASSERT_TRUE(d->server->Start().ok());
    d->thread = std::thread([d] { d->server->Run(); });
  }

  Client Connected(const Daemon& d) {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", d.server->port()).ok());
    return client;
  }

  /// Extracts a `adrec_...` sample value from a Prometheus payload.
  static bool MetricValue(const std::string& payload,
                          const std::string& name, double* value) {
    const size_t pos = payload.find("\n" + name + " ");
    if (pos == std::string::npos) return false;
    *value = std::strtod(payload.c_str() + pos + 1 + name.size(), nullptr);
    return true;
  }

  /// Polls the follower's metrics until it has applied `seqno`.
  void WaitForApplied(Client* client, uint64_t seqno,
                      double timeout_sec = 10.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(timeout_sec);
    for (;;) {
      auto metrics = client->Metrics();
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      double applied = -1.0;
      if (MetricValue(metrics.value(), "adrec_replica_applied_seqno",
                      &applied) &&
          applied >= static_cast<double>(seqno)) {
        return;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "follower stuck at applied_seqno=" << applied
          << " want " << seqno;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::string base_dir_;
  feed::WorkloadOptions opts_;
  /// The driver's own copy of the (deterministic) workload, for the
  /// events the tests send over the wire.
  feed::Workload workload_;
};

/// Sends one raw line to the port and returns the first reply line
/// (CRLF stripped) — for verbs whose reply a Client cannot frame (the
/// `repl` stream handshake).
std::string RawFirstLine(uint16_t port, const std::string& line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "<socket failed>";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "<connect failed>";
  }
  const std::string frame = line + "\n";
  (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  std::string in;
  char buf[512];
  while (in.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    in.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t nl = in.find('\n');
  if (nl == std::string::npos) return "<no reply>";
  size_t end = nl;
  if (end > 0 && in[end - 1] == '\r') --end;
  return in.substr(0, end);
}

TEST_F(ServeReplicaTest, FollowerCatchesUpStreamsTailAndServesReads) {
  Daemon leader;
  StartDaemon(&leader, "leader");
  uint64_t acked = 0;

  // Catch-up material: records acknowledged before the follower exists.
  {
    Client client = Connected(leader);
    for (const feed::Ad& ad : workload_.ads) {
      ASSERT_TRUE(client.PutAd(ad).ok());
      ++acked;
    }
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
      ++acked;
    }
  }

  Daemon follower;
  StartDaemon(&follower, "follower", leader.server->port());
  Client fclient = Connected(follower);
  WaitForApplied(&fclient, acked);

  // Live tail: records ingested while the stream is attached.
  {
    Client client = Connected(leader);
    for (size_t i = 20; i < 40; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
      ++acked;
    }
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.SendCheckIn(workload_.check_ins[i]).ok());
      ++acked;
    }
  }
  WaitForApplied(&fclient, acked);

  // The follower serves reads from replicated state: identical top-k.
  Client lclient = Connected(leader);
  const feed::Tweet& probe = workload_.tweets[5];
  auto leader_ads = lclient.TopK(probe.user, 3, probe.time, probe.text);
  auto follower_ads = fclient.TopK(probe.user, 3, probe.time, probe.text);
  ASSERT_TRUE(leader_ads.ok()) << leader_ads.status().ToString();
  ASSERT_TRUE(follower_ads.ok()) << follower_ads.status().ToString();
  ASSERT_EQ(leader_ads.value().size(), follower_ads.value().size());
  for (size_t i = 0; i < leader_ads.value().size(); ++i) {
    EXPECT_EQ(leader_ads.value()[i].ad.value,
              follower_ads.value()[i].ad.value);
    EXPECT_EQ(leader_ads.value()[i].score, follower_ads.value()[i].score);
  }

  // Acceptance: the lag gauges are visible in the follower's Prometheus
  // exposition, raw unit suffix preserved, and lag is zero at the tip.
  auto metrics = fclient.Metrics();
  ASSERT_TRUE(metrics.ok());
  double lag_records = -1.0, lag_ms = -1.0, connected = -1.0;
  ASSERT_TRUE(MetricValue(metrics.value(), "adrec_replica_lag_records",
                          &lag_records))
      << metrics.value();
  ASSERT_TRUE(MetricValue(metrics.value(), "adrec_replica_lag_ms", &lag_ms));
  ASSERT_TRUE(
      MetricValue(metrics.value(), "adrec_replica_connected", &connected));
  EXPECT_EQ(lag_records, 0.0);
  EXPECT_EQ(connected, 1.0);

  // The leader counts its replication stream.
  auto lmetrics = lclient.Metrics();
  ASSERT_TRUE(lmetrics.ok());
  double streams = -1.0;
  ASSERT_TRUE(
      MetricValue(lmetrics.value(), "adrec_serve_repl_streams", &streams));
  EXPECT_EQ(streams, 1.0);
}

/// The satellite: every verb in the table crosses the READONLY gate on a
/// live follower, so a new verb cannot be added without classifying it
/// (IsWriteVerb's switch breaks the build) nor slip past the gate
/// unnoticed (this loop breaks the test).
TEST_F(ServeReplicaTest, ReadOnlyGateCoversEveryVerbInTheTable) {
  Daemon leader;
  StartDaemon(&leader, "leader");
  {
    Client client = Connected(leader);
    ASSERT_TRUE(client.PutAd(workload_.ads[0]).ok());
    ASSERT_TRUE(client.SendTweet(workload_.tweets[0]).ok());
  }
  Daemon follower;
  StartDaemon(&follower, "follower", leader.server->port());
  Client fclient = Connected(follower);
  WaitForApplied(&fclient, 2);

  for (size_t v = 0; v < kNumVerbs; ++v) {
    const Verb verb = static_cast<Verb>(v);
    std::string line(VerbName(verb));
    if (verb == Verb::kTweet) line += "\t1\t0\tx";
    if (verb == Verb::kCheckIn) line += "\t1\t0\t2";
    if (verb == Verb::kAdPut) line += "\t9\t1\t10\t1.0\t\t\tx";
    if (verb == Verb::kAdDel || verb == Verb::kMatch) line += "\t1";
    if (verb == Verb::kTopK) line += "\t1\t3";
    if (verb == Verb::kSnapshot) line += "\t/tmp/x";
    if (verb == Verb::kRepl) line += "\t0\t1\t0";
    if (verb == Verb::kQuit) continue;  // closes without a reply

    const std::string reply = RawFirstLine(follower.server->port(), line);
    if (IsWriteVerb(verb)) {
      EXPECT_EQ(reply, "READONLY") << VerbName(verb);
    } else {
      EXPECT_NE(reply, "READONLY") << VerbName(verb);
      EXPECT_NE(reply, "<no reply>") << VerbName(verb);
    }
  }

  // And the counter accounts for the rejections.
  auto metrics = fclient.Metrics();
  ASSERT_TRUE(metrics.ok());
  double rejected = 0.0;
  ASSERT_TRUE(MetricValue(metrics.value(),
                          "adrec_serve_readonly_rejected_total", &rejected));
  EXPECT_EQ(rejected, 4.0);  // tweet, checkin, adput, addel
}

TEST_F(ServeReplicaTest, PromoteDetachesSealsAndAcceptsWrites) {
  Daemon leader;
  StartDaemon(&leader, "leader");
  uint64_t acked = 0;
  {
    Client client = Connected(leader);
    ASSERT_TRUE(client.PutAd(workload_.ads[0]).ok());
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
    }
    acked = 11;
  }
  Daemon follower;
  StartDaemon(&follower, "follower", leader.server->port());
  Client fclient = Connected(follower);
  WaitForApplied(&fclient, acked);

  // Pre-promotion: writes rejected; promote on a leader is an error.
  EXPECT_EQ(fclient.SendTweet(workload_.tweets[10]).code(),
            StatusCode::kFailedPrecondition);
  Client lclient = Connected(leader);
  auto leader_promote = lclient.Command("promote");
  ASSERT_TRUE(leader_promote.ok());
  EXPECT_TRUE(StartsWith(leader_promote.value(), "SERVER_ERROR"))
      << leader_promote.value();

  // The leader dies; the follower is promoted and accepts writes.
  leader.Stop();
  auto promoted = fclient.Command("promote");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value(), "OK");
  ASSERT_TRUE(fclient.SendTweet(workload_.tweets[10]).ok());
  // Idempotent: a second promote is still OK.
  auto again = fclient.Command("promote");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), "OK");

  // The promoted daemon's log now carries the replicated prefix plus the
  // post-promotion write, all frame-valid.
  follower.Stop();
  auto report = wal::VerifyLog(follower.wal_dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().records, acked + 1);
  EXPECT_FALSE(report.value().torn_tail);
}

/// A follower whose log has another stream count than the leader's is
/// refused at the handshake (CLIENT_ERROR) instead of streaming: a
/// two-stream follower must not apply the one-stream leader's records
/// (stream 0 carries every shard's users) and abort. It reports itself
/// disconnected and its own log stays empty.
TEST_F(ServeReplicaTest, StreamCountMismatchIsRefusedAtTheHandshake) {
  Daemon leader;
  StartDaemon(&leader, "leader");
  {
    Client client = Connected(leader);
    ASSERT_TRUE(client.PutAd(workload_.ads[0]).ok());
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
    }
  }
  EXPECT_NE(RawFirstLine(leader.server->port(), "repl\t0\t2\t0")
                .find("CLIENT_ERROR"),
            std::string::npos);

  Daemon follower;
  StartDaemon(&follower, "follower", leader.server->port(), 0,
              /*streams=*/2);
  Client fclient = Connected(follower);
  // Wait out several refused handshakes on both streams.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    auto metrics = fclient.Metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    double r0 = 0.0;
    double r1 = 0.0;
    if (MetricValue(metrics.value(), "adrec_replica_s0_reconnects_total",
                    &r0) &&
        MetricValue(metrics.value(), "adrec_replica_s1_reconnects_total",
                    &r1) &&
        r0 >= 2.0 && r1 >= 2.0) {
      for (const char* name :
           {"adrec_replica_s0_connected", "adrec_replica_s1_connected",
            "adrec_replica_s0_applied_seqno",
            "adrec_replica_s1_applied_seqno"}) {
        double value = -1.0;
        ASSERT_TRUE(MetricValue(metrics.value(), name, &value)) << name;
        EXPECT_EQ(value, 0.0) << name;
      }
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "follower never retried the refused handshake";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  follower.Stop();
  for (size_t s = 0; s < 2; ++s) {
    auto report = wal::VerifyLog(wal::StreamDir(follower.wal_dir, s, 2));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().records, 0u) << "stream " << s;
  }
}

/// A per-shard follower refuses a frame whose user another shard owns
/// before it reaches the local log (recovery would trip over it on every
/// restart). A fake leader acknowledges the handshake of stream 0 of a
/// two-stream log and ships one tweet of a shard-1 user.
TEST_F(ServeReplicaTest, ForeignFrameIsRefusedBeforeTheLocalLog) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  core::ShardedEngine engine(workload_.kb, workload_.slots, 2);
  feed::FeedEvent foreign;
  foreign.kind = feed::EventKind::kTweet;
  foreign.tweet = workload_.tweets.front();
  for (uint32_t u = 0; engine.ShardOf(foreign.tweet.user) != 1; ++u) {
    foreign.tweet.user = UserId(u);
  }
  std::string handshake;
  std::thread leader([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[256];
    while (handshake.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      handshake.append(buf, static_cast<size_t>(n));
    }
    const std::string reply =
        "REPL OK 0 0\r\n" +
        wal::EncodeFrame(1, wal::EncodeEventPayload(foreign));
    (void)!::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    // Hold the stream open until the follower hangs up.
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  });

  const std::string dir = base_dir_ + "/follower";
  wal::WalOptions wal_options;
  wal_options.shards = 2;
  auto opened = wal::ShardedWal::Open(dir, wal_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  replica::FollowerOptions fopts;
  fopts.port = ntohs(addr.sin_port);
  fopts.backoff_initial = 60.0;  // one attempt is the whole test
  replica::Follower follower(&engine, opened.value().get(), 0, fopts);
  const auto reconnects = [&] {
    return follower.metrics().Snapshot().counters.at(
        "replica.s0.reconnects");
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reconnects() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    follower.Tick();
    if (follower.fd() < 0) continue;
    pollfd pfd{follower.fd(),
               static_cast<short>(POLLIN |
                                  (follower.want_write() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 100) > 0) follower.OnPollEvents(pfd.revents);
  }
  follower.Detach();
  leader.join();
  ::close(listen_fd);

  EXPECT_EQ(handshake, "repl\t0\t2\t0\n");
  EXPECT_EQ(follower.applied_seqno(), 0u);
  EXPECT_EQ(engine.Stats().tweets, 0u);
  opened.value().reset();
  for (size_t s = 0; s < 2; ++s) {
    auto report = wal::VerifyLog(wal::StreamDir(dir, s, 2));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().records, 0u) << "stream " << s;
  }
}

/// The reconnect satellite: a client with SetReconnect rides through a
/// full daemon restart (and an initially-down daemon) transparently.
TEST_F(ServeReplicaTest, ClientReconnectRidesThroughRestart) {
  Daemon daemon;
  StartDaemon(&daemon, "solo");
  const uint16_t port = daemon.server->port();

  Client client;
  ReconnectOptions ropts;
  ropts.enabled = true;
  ropts.backoff_initial = 0.05;
  ropts.backoff_max = 0.5;
  client.SetReconnect(ropts);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(client.Ping().ok());

  // Restart the daemon on the same port behind the client's back.
  daemon.Stop();
  Daemon revived;
  StartDaemon(&revived, "solo", 0, port);

  // The old socket is dead; the command must reconnect and succeed.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.SendTweet(workload_.tweets[0]).ok());

  // Without reconnect the same sequence fails on the dead socket.
  revived.Stop();
  Daemon last;
  StartDaemon(&last, "solo2", 0, port);
  Client plain;
  ASSERT_TRUE(plain.Connect("127.0.0.1", port).ok());
  last.Stop();
  EXPECT_EQ(plain.Ping().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace adrec::serve
