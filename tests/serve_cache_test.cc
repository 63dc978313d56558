// The topk result cache at the wire level: a daemon started with
// --topk-cache serves byte-identical replies on hits, surfaces the
// cache.* counters through the `metrics` exposition and the
// cache.lookup/cache.fill spans through `trace`, and invalidates on
// ingest — including a READONLY follower invalidating as replicated
// frames apply, and across `promote`. The exhaustive equivalence proof
// lives in cache_differential_test.cc; these tests pin the serving
// plumbing around it.

#include "serve/server.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "feed/workload.h"
#include "obs/trace.h"
#include "replica/follower.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace adrec::serve {
namespace {

/// One in-process daemon: engine + WAL + server (+ follower), the same
/// wiring examples/adrecd.cpp does. Per-daemon workload for the same
/// reason serve_replica_test has one: the analyzer vocabulary is
/// single-writer per daemon.
struct Daemon {
  feed::Workload workload;
  std::string wal_dir;
  std::unique_ptr<wal::CheckpointManager> checkpointer;
  std::unique_ptr<wal::ShardedWal> wal;
  std::unique_ptr<core::ShardedEngine> engine;
  std::unique_ptr<replica::Follower> follower;
  std::unique_ptr<Server> server;
  std::thread thread;

  void Stop() {
    if (server) {
      server->RequestDrain();
      if (thread.joinable()) thread.join();
      server.reset();
    }
    follower.reset();
    wal.reset();
  }
  ~Daemon() { Stop(); }
};

class ServeCacheTest : public ::testing::Test {
 protected:
  ServeCacheTest() {
    base_dir_ =
        (std::filesystem::temp_directory_path() /
         ("adrec_servecache_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    std::filesystem::remove_all(base_dir_);
    std::filesystem::create_directories(base_dir_);

    opts_.seed = 808;
    opts_.num_users = 12;
    opts_.num_places = 8;
    opts_.num_ads = 3;
    opts_.days = 2;
    workload_ = feed::GenerateWorkload(opts_);
  }
  ~ServeCacheTest() override { std::filesystem::remove_all(base_dir_); }

  void StartDaemon(Daemon* d, const std::string& tag,
                   ServerOptions options = ServerOptions(),
                   uint16_t leader_port = 0) {
    d->workload = feed::GenerateWorkload(opts_);
    d->wal_dir = base_dir_ + "/" + tag;
    d->checkpointer = std::make_unique<wal::CheckpointManager>(d->wal_dir);
    d->engine = std::make_unique<core::ShardedEngine>(d->workload.kb,
                                                      d->workload.slots, 1);
    auto recovered = d->checkpointer->Recover(d->engine.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;
    auto opened = wal::ShardedWal::Open(d->wal_dir, wal_options,
                                        recovered.value().stream_next_seqnos);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    d->wal = std::move(opened).value();

    options.wal = d->wal.get();
    options.checkpointer = d->checkpointer.get();
    if (leader_port != 0) {
      replica::FollowerOptions fopts;
      fopts.host = "127.0.0.1";
      fopts.port = leader_port;
      fopts.backoff_initial = 0.05;
      d->follower = std::make_unique<replica::Follower>(
          d->engine.get(), d->wal.get(), 0, fopts);
      options.followers = {d->follower.get()};
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

  static bool MetricValue(const std::string& payload,
                          const std::string& name, double* value) {
    const size_t pos = payload.find("\n" + name + " ");
    if (pos == std::string::npos) return false;
    *value = std::strtod(payload.c_str() + pos + 1 + name.size(), nullptr);
    return true;
  }

  double CounterOrDie(Client* client, const std::string& name) {
    auto metrics = client->Metrics();
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    double value = -1.0;
    EXPECT_TRUE(MetricValue(metrics.value(), name, &value))
        << name << " absent from exposition";
    return value;
  }

  void WaitForApplied(Client* client, uint64_t seqno,
                      double timeout_sec = 10.0) {
    const auto deadline = std::chrono::steady_clock::now() +
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
          << "follower stuck at applied_seqno=" << applied << " want "
          << seqno;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// An explicit-time topk line (tab-framed): a stable query shape whose
  /// cache identity does not move with the server's stream clock.
  std::string ProbeLine(size_t user, Timestamp time) const {
    return FormatTopKCmd(UserId(static_cast<uint32_t>(user)), 3, time,
                         workload_.tweets[user % workload_.tweets.size()].text);
  }

  std::string base_dir_;
  feed::WorkloadOptions opts_;
  feed::Workload workload_;
};

TEST_F(ServeCacheTest, CacheIsOffByDefault) {
  Daemon d;
  StartDaemon(&d, "plain");
  Client client = Connected(d);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(client.PutAd(ad).ok());
  }
  const std::string probe = ProbeLine(1, workload_.tweets.back().time);
  auto first = client.Command(probe);
  ASSERT_TRUE(first.ok());
  auto second = client.Command(probe);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  // No cache, no cache.* exposition.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().find("adrec_cache_hits_total"),
            std::string::npos);
}

TEST_F(ServeCacheTest, HitsAndMissesSurfaceInMetricsAndRepliesMatch) {
  Daemon d;
  ServerOptions options;
  options.topk_cache.capacity = 64;
  StartDaemon(&d, "cached", options);
  Client client = Connected(d);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(client.PutAd(ad).ok());
  }
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.SendTweet(workload_.tweets[i]).ok());
  }

  const std::string probe = ProbeLine(2, workload_.tweets.back().time);
  auto first = client.Command(probe);
  ASSERT_TRUE(first.ok());
  auto second = client.Command(probe);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value())
      << "cached reply diverged from computed reply";

  EXPECT_EQ(CounterOrDie(&client, "adrec_cache_misses_total"), 1.0);
  EXPECT_EQ(CounterOrDie(&client, "adrec_cache_hits_total"), 1.0);
  double ratio = -1.0;
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(MetricValue(metrics.value(), "adrec_cache_hit_ratio", &ratio));
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST_F(ServeCacheTest, IngestInvalidatesResidentEntries) {
  Daemon d;
  ServerOptions options;
  options.topk_cache.capacity = 64;
  StartDaemon(&d, "cached", options);
  Client client = Connected(d);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(client.PutAd(ad).ok());
  }

  const std::string probe = ProbeLine(3, workload_.tweets.back().time);
  ASSERT_TRUE(client.Command(probe).ok());  // fill
  // A tweet by the queried user evicts the entry: the next identical
  // probe misses instead of hitting.
  feed::Tweet tweet = workload_.tweets[0];
  tweet.user = UserId(3);
  ASSERT_TRUE(client.SendTweet(tweet).ok());
  ASSERT_TRUE(client.Command(probe).ok());

  EXPECT_EQ(CounterOrDie(&client, "adrec_cache_hits_total"), 0.0);
  EXPECT_EQ(CounterOrDie(&client, "adrec_cache_misses_total"), 2.0);
  EXPECT_GE(CounterOrDie(&client, "adrec_cache_invalidations_total"), 1.0);
}

TEST_F(ServeCacheTest, LookupAndFillSpansAppearInTraces) {
  obs::TraceCollectorOptions topts;
  topts.sample_every = 1;  // keep every trace
  obs::TraceCollector tracer(topts);
  Daemon d;
  ServerOptions options;
  options.topk_cache.capacity = 64;
  options.tracer = &tracer;
  StartDaemon(&d, "traced", options);
  Client client = Connected(d);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(client.PutAd(ad).ok());
  }
  const std::string probe = ProbeLine(4, workload_.tweets.back().time);
  ASSERT_TRUE(client.Command(probe).ok());  // miss → cache.fill span
  ASSERT_TRUE(client.Command(probe).ok());  // hit → cache.lookup span
  auto trace = client.Trace();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace.value().find("cache.fill"), std::string::npos)
      << trace.value();
  EXPECT_NE(trace.value().find("cache.lookup"), std::string::npos)
      << trace.value();
}

TEST_F(ServeCacheTest, FollowerCachesReadsInvalidatesOnApplyAndPromotes) {
  Daemon leader;
  StartDaemon(&leader, "leader");
  uint64_t acked = 0;
  {
    Client lclient = Connected(leader);
    for (const feed::Ad& ad : workload_.ads) {
      ASSERT_TRUE(lclient.PutAd(ad).ok());
      ++acked;
    }
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(lclient.SendTweet(workload_.tweets[i]).ok());
      ++acked;
    }
  }

  Daemon follower;
  ServerOptions foptions;
  foptions.topk_cache.capacity = 64;
  StartDaemon(&follower, "follower", foptions, leader.server->port());
  Client fclient = Connected(follower);
  WaitForApplied(&fclient, acked);

  // READONLY follower still serves topk, and the cache works: the
  // repeated probe is a hit, byte-identical to the computed reply.
  const std::string probe = ProbeLine(5, workload_.tweets.back().time);
  auto first = fclient.Command(probe);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().rfind("ADS", 0) == 0) << first.value();
  auto second = fclient.Command(probe);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
  EXPECT_EQ(CounterOrDie(&fclient, "adrec_cache_hits_total"), 1.0);

  // A replicated frame touching the queried user invalidates the cached
  // entry as it applies — the next probe misses.
  {
    Client lclient = Connected(leader);
    feed::Tweet tweet = workload_.tweets[0];
    tweet.user = UserId(5);
    ASSERT_TRUE(lclient.SendTweet(tweet).ok());
    ++acked;
  }
  WaitForApplied(&fclient, acked);
  EXPECT_GE(CounterOrDie(&fclient, "adrec_cache_invalidations_total"), 1.0);
  const double misses_before =
      CounterOrDie(&fclient, "adrec_cache_misses_total");
  ASSERT_TRUE(fclient.Command(probe).ok());
  EXPECT_EQ(CounterOrDie(&fclient, "adrec_cache_misses_total"),
            misses_before + 1.0);

  // Promote: the daemon starts accepting writes, and the cache keeps
  // invalidating on them (now via the leader-side ingest path).
  leader.Stop();
  auto promoted = fclient.Command("promote");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted.value().rfind("OK", 0), 0u) << promoted.value();

  const double invalidations_before =
      CounterOrDie(&fclient, "adrec_cache_invalidations_total");
  ASSERT_TRUE(fclient.Command(probe).ok());  // refill after the miss above
  feed::Tweet tweet = workload_.tweets[1];
  tweet.user = UserId(5);
  ASSERT_TRUE(fclient.SendTweet(tweet).ok());
  EXPECT_GT(CounterOrDie(&fclient, "adrec_cache_invalidations_total"),
            invalidations_before);
}

}  // namespace
}  // namespace adrec::serve
