// The serving daemon's durability wiring, in process: a Server with a
// one-stream ShardedWal + CheckpointManager attached must log every ingest verb
// before applying it, survive a restart via Recover, and expose the
// `checkpoint` admin verb and wal.* metrics over the wire.

#include "serve/server.h"

#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>
#include <unistd.h>

#include "feed/workload.h"
#include "serve/client.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace adrec::serve {
namespace {

class ServeWalTest : public ::testing::Test {
 protected:
  ServeWalTest() {
    wal_dir_ =
        (std::filesystem::temp_directory_path() /
         ("adrec_servewal_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    std::filesystem::remove_all(wal_dir_);

    feed::WorkloadOptions opts;
    opts.seed = 515;
    opts.num_users = 12;
    opts.num_places = 8;
    opts.num_ads = 3;
    opts.days = 2;
    workload_ = feed::GenerateWorkload(opts);
  }
  ~ServeWalTest() override {
    StopServer();
    std::filesystem::remove_all(wal_dir_);
  }

  /// Recovers (as the daemon's startup does) and starts a server wired to
  /// the log directory.
  void StartServer() {
    checkpointer_ = std::make_unique<wal::CheckpointManager>(wal_dir_);
    engine_ = std::make_unique<core::ShardedEngine>(workload_.kb,
                                                    workload_.slots, 1);
    auto recovered = checkpointer_->Recover(engine_.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    recovery_ = recovered.value();

    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;  // tests need speed, not D
    auto opened = wal::ShardedWal::Open(wal_dir_, wal_options,
                                        recovery_.stream_next_seqnos);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    wal_ = std::move(opened).value();

    ServerOptions options;
    options.wal = wal_.get();
    options.checkpointer = checkpointer_.get();
    server_ = std::make_unique<Server>(engine_.get(), options);
    if (recovery_.max_event_time > 0) {
      server_->SeedStreamClock(recovery_.max_event_time);
    }
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] { server_->Run(); });
  }

  void StopServer() {
    if (server_) {
      server_->RequestDrain();
      if (thread_.joinable()) thread_.join();
      server_.reset();
    }
    wal_.reset();  // destructor flushes + seals, like process exit
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::string wal_dir_;
  feed::Workload workload_;
  std::unique_ptr<wal::CheckpointManager> checkpointer_;
  std::unique_ptr<wal::ShardedWal> wal_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  wal::RecoveryResult recovery_;
};

TEST_F(ServeWalTest, IngestVerbsAreLoggedQueriesAreNot) {
  StartServer();
  {
    Client client = Connected();
    ASSERT_TRUE(client.PutAd(workload_.ads[0]).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
    }
    ASSERT_TRUE(client.SendCheckIn(workload_.check_ins[0]).ok());
    ASSERT_TRUE(client.DeleteAd(workload_.ads[0].id).ok());
    // Queries must not grow the log.
    ASSERT_TRUE(client.Ping().ok());
    (void)client.TopK(workload_.tweets[0].user, 2);
  }
  StopServer();

  auto report = wal::VerifyLog(wal_dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().torn_tail);
  // adput + 5 tweets + checkin + addel = 8 records, nothing else.
  EXPECT_EQ(report.value().records, 8u);
}

TEST_F(ServeWalTest, RestartRecoversLoggedState) {
  ASSERT_GE(workload_.tweets.size(), 21u);
  ASSERT_GE(workload_.check_ins.size(), 20u);
  StartServer();
  {
    Client client = Connected();
    for (const feed::Ad& ad : workload_.ads) {
      ASSERT_TRUE(client.PutAd(ad).ok());
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
      ASSERT_TRUE(client.SendCheckIn(workload_.check_ins[i]).ok());
    }
  }
  StopServer();
  const core::EngineStats before = engine_->Stats();
  EXPECT_EQ(before.tweets, 20u);

  // Restart: a fresh engine recovers purely from the log.
  StartServer();
  EXPECT_FALSE(recovery_.from_checkpoint);
  EXPECT_EQ(recovery_.live_replayed,
            workload_.ads.size() + 40);
  const core::EngineStats after = engine_->Stats();
  EXPECT_EQ(after.tweets, before.tweets);
  EXPECT_EQ(after.checkins, before.checkins);
  EXPECT_EQ(after.ads_inserted, before.ads_inserted);

  // And the recovered daemon keeps serving (the stream clock was seeded,
  // so time does not run backwards for the decay machinery).
  Client client = Connected();
  EXPECT_TRUE(client.SendTweet(workload_.tweets[20]).ok());
  auto topk = client.TopK(workload_.tweets[20].user, 3);
  EXPECT_TRUE(topk.ok()) << topk.status().ToString();
}

TEST_F(ServeWalTest, CheckpointVerbCoordinatesSnapshotAndMark) {
  StartServer();
  {
    Client client = Connected();
    for (const feed::Ad& ad : workload_.ads) {
      ASSERT_TRUE(client.PutAd(ad).ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
    }
    auto reply = client.Command("checkpoint");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.value(), "OK");
    // More traffic after the mark: the restart must replay exactly this
    // tail through live ingest.
    for (int i = 10; i < 16; ++i) {
      ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
    }
  }
  StopServer();
  ASSERT_TRUE(
      std::filesystem::exists(wal_dir_ + "/checkpoint/MANIFEST.tsv"));

  StartServer();
  EXPECT_TRUE(recovery_.from_checkpoint);
  EXPECT_EQ(recovery_.checkpoint_seqno, workload_.ads.size() + 10);
  EXPECT_EQ(recovery_.live_replayed, 6u);
  // Engine counters restart at the checkpoint: the snapshot carries
  // serving state, not event counters, so only the live-replayed tail
  // is counted here.
  EXPECT_EQ(engine_->Stats().tweets, 6u);
}

TEST_F(ServeWalTest, CheckpointVerbRequiresCoordinator) {
  // A server without durability wiring refuses the verb instead of
  // silently acking a checkpoint that never happened.
  engine_ = std::make_unique<core::ShardedEngine>(workload_.kb,
                                                  workload_.slots, 1);
  server_ = std::make_unique<Server>(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server_->Start().ok());
  thread_ = std::thread([this] { server_->Run(); });
  Client client = Connected();
  auto reply = client.Command("checkpoint");
  ASSERT_TRUE(reply.ok());  // transport-level success: a reply arrived
  EXPECT_EQ(reply.value().rfind("SERVER_ERROR", 0), 0u) << reply.value();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeWalTest, WalMetricsExposedOverTheWire) {
  StartServer();
  Client client = Connected();
  ASSERT_TRUE(client.PutAd(workload_.ads[0]).ok());
  ASSERT_TRUE(client.SendTweet(workload_.tweets[0]).ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.value().find("adrec_wal_appends_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().find("adrec_wal_commits_total"),
            std::string::npos);
}

}  // namespace
}  // namespace adrec::serve
