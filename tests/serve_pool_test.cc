// The multi-core server over real sockets: lane 0 accepting and dealing
// connections to N event-loop lanes, each executing what it reads in
// place under per-shard locks, per-shard WAL streams, and the merged
// observability views (`stats`/`conns`/`trace`/`slow` carry worker
// ids). These are also the TSan targets for the lanes: every test runs
// N lane threads against concurrent clients.

#include "serve/server.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/string_util.h"
#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "obs/trace.h"
#include "replica/follower.h"
#include "serve/client.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace adrec::serve {
namespace {

class ServePoolTest : public ::testing::Test {
 protected:
  ServePoolTest() {
    base_dir_ =
        (std::filesystem::temp_directory_path() /
         ("adrec_servepool_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    std::filesystem::remove_all(base_dir_);
    std::filesystem::create_directories(base_dir_);

    feed::WorkloadOptions opts;
    opts.seed = 4242;
    opts.num_users = 24;
    opts.num_places = 10;
    opts.num_ads = 4;
    opts.days = 2;
    workload_ = feed::GenerateWorkload(opts);
  }
  ~ServePoolTest() override {
    StopPool();
    std::filesystem::remove_all(base_dir_);
  }

  /// Starts a `workers`-lane Server over a fresh `shards`-shard engine.
  /// When `wal_shards` > 0, attaches a ShardedWal with that many streams
  /// (must equal `shards`) plus a CheckpointManager rooted at the log
  /// directory.
  void StartPool(size_t shards, size_t workers, size_t wal_shards = 0,
                 obs::TraceCollector* tracer = nullptr,
                 wal::SyncPolicy sync = wal::SyncPolicy::kNone) {
    engine_ = std::make_unique<core::ShardedEngine>(workload_.kb,
                                                    workload_.slots, shards);
    ServerOptions base;
    base.tracer = tracer;
    base.workers = workers;
    if (wal_shards > 0) {
      wal::WalOptions wal_options;
      wal_options.sync = sync;
      wal_options.shards = wal_shards;
      auto opened = wal::ShardedWal::Open(base_dir_ + "/wal", wal_options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      wal_ = std::move(opened).value();
      base.wal = wal_.get();
      checkpointer_ =
          std::make_unique<wal::CheckpointManager>(base_dir_ + "/wal");
      base.checkpointer = checkpointer_.get();
    }
    pool_ = std::make_unique<Server>(engine_.get(), base);
    ASSERT_TRUE(pool_->Start().ok());
    thread_ = std::thread([this] { pool_->Run(); });
  }

  void StopPool() {
    if (!pool_) return;
    pool_->RequestDrain();
    if (thread_.joinable()) thread_.join();
    pool_.reset();
    checkpointer_.reset();
    wal_.reset();
  }

  Client Connected() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", pool_->port()).ok());
    return client;
  }

  /// Value of a `STAT <name> <value>` line, or -1 when absent.
  static long long StatValue(const std::string& stats,
                             const std::string& name) {
    const std::string needle = "STAT " + name + " ";
    const size_t pos = stats.find(needle);
    if (pos == std::string::npos) return -1;
    return std::stoll(stats.substr(pos + needle.size()));
  }

  std::string base_dir_;
  feed::Workload workload_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::unique_ptr<wal::ShardedWal> wal_;
  std::unique_ptr<wal::CheckpointManager> checkpointer_;
  std::unique_ptr<Server> pool_;
  std::thread thread_;
};

/// Sends one raw line and returns the first reply line (CRLF stripped):
/// for the `repl` handshake, whose success reply precedes an unframed
/// stream of WAL frames.
std::string RawFirstLine(uint16_t port, const std::string& line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "<socket failed>";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
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

/// Cross-shard traffic through one connection: the worker that reads
/// each op runs it in place, whichever shard it lands on, with
/// per-connection reply order preserved. The `stats` barrier verb
/// merges every worker's registry: the engine counters must account for
/// every ingested event regardless of which worker carried it.
TEST_F(ServePoolTest, CrossShardTrafficMergesIntoPoolStats) {
  StartPool(/*shards=*/4, /*workers=*/2);
  Client client = Connected();
  constexpr size_t kTweets = 16;
  for (size_t i = 0; i < kTweets; ++i) {
    feed::Tweet t;
    t.user = UserId(static_cast<uint32_t>(i));  // covers all 4 shards
    t.time = static_cast<Timestamp>(100 + i);
    t.text = "coffee and live music";
    ASSERT_TRUE(client.SendTweet(t).ok()) << "tweet " << i;
  }
  for (size_t i = 0; i < kTweets; ++i) {
    auto topk = client.TopK(UserId(static_cast<uint32_t>(i)), 3);
    EXPECT_TRUE(topk.ok()) << "topk " << i;
  }
  auto stats = client.Command("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(StatValue(stats.value(), "engine.tweets"),
            static_cast<long long>(kTweets));
  EXPECT_EQ(StatValue(stats.value(), "engine.topk_queries"),
            static_cast<long long>(kTweets));
}

/// What ConcurrentTraffic sent, for the count checks.
struct TrafficTally {
  long long tweets = 0;
  long long checkins = 0;
  long long topks = 0;
  long long ads_put = 0;
  long long ads_deleted = 0;
};

/// Two connections (dealt to different workers) interleave
/// explicit-time tweets, check-ins and topks with words no vocabulary
/// holds, plus adput/addel pairs that take every shard lock. Each round
/// runs ops for users of shard 0, which both workers then run in place
/// under one lock, and for users of the connection's own shard c, so
/// worker 2 annotates on shard 1 while worker 1 is busy on shard 0.
/// Every reply must be well-formed; returns what was sent.
TrafficTally ConcurrentTraffic(uint16_t port, const core::ShardedEngine& engine,
                               size_t rounds) {
  std::vector<std::vector<uint32_t>> users(2);  // four users per shard
  for (uint32_t u = 0; users[0].size() < 4 || users[1].size() < 4; ++u) {
    std::vector<uint32_t>& of_shard = users[engine.ShardOf(UserId(u))];
    if (of_shard.size() < 4) of_shard.push_back(u);
  }
  std::vector<TrafficTally> tallies(2);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      TrafficTally& tally = tallies[c];
      const auto expect_ok = [&](const std::string& line) {
        auto reply = client.Command(line);
        ASSERT_TRUE(reply.ok()) << line;
        EXPECT_EQ(reply.value(), "OK") << line;
      };
      for (size_t i = 0; i < rounds; ++i) {
        const std::string time = std::to_string(1000 + i);
        // Novel words: every worker annotates text no vocabulary holds.
        const std::string novel = "zq" + std::to_string(c) + "x" +
                                  std::to_string(i) + " flurb" +
                                  std::to_string(i * 7 + c);
        for (size_t shard : {size_t{0}, c}) {
          const std::string user = std::to_string(users[shard][(i + c) % 4]);
          expect_ok("tweet\t" + user + "\t" + time + "\tcoffee " + novel +
                    " live music");
          ++tally.tweets;
          expect_ok("checkin\t" + user + "\t" + time + "\t" +
                    std::to_string(i % 5));
          ++tally.checkins;
          auto topk = client.Command("topk\t" + user + "\t3\t" + time +
                                     "\tpizza " + novel);
          ASSERT_TRUE(topk.ok());
          EXPECT_TRUE(StartsWith(topk.value(), "ADS ") &&
                      topk.value().ends_with("\nEND"))
              << topk.value();
          ++tally.topks;
        }
        if (i % 4 == 0) {
          // Each connection owns its ad ids; every other ad stays live.
          const std::string ad = std::to_string(100 + c * 1000 + i);
          expect_ok("adput\t" + ad + "\t7\t50\t1.5\t\t\tcoffee and " + novel);
          ++tally.ads_put;
          if (i % 8 == 0) {
            expect_ok("addel\t" + ad);
            ++tally.ads_deleted;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TrafficTally total;
  for (const TrafficTally& t : tallies) {
    total.tweets += t.tweets;
    total.checkins += t.checkins;
    total.topks += t.topks;
    total.ads_put += t.ads_put;
    total.ads_deleted += t.ads_deleted;
  }
  return total;
}

/// In-place execution under shard locks keeps every count: the pool's
/// stats account for every op both workers ran on the shared shard, and
/// the live ads are the puts minus the deletes.
TEST_F(ServePoolTest, ConcurrentInPlaceExecutionKeepsEveryCount) {
  StartPool(/*shards=*/2, /*workers=*/2);
  const TrafficTally sent = ConcurrentTraffic(pool_->port(), *engine_, 64);
  Client client = Connected();
  auto stats = client.Command("stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(StatValue(stats.value(), "engine.tweets"), sent.tweets);
  EXPECT_EQ(StatValue(stats.value(), "engine.checkins"), sent.checkins);
  EXPECT_EQ(StatValue(stats.value(), "engine.topk_queries"), sent.topks);
  EXPECT_EQ(StatValue(stats.value(), "index.ads"),
            sent.ads_put - sent.ads_deleted);
  // Ad ops are not barrier verbs any more: only this `stats` stopped
  // the world.
  EXPECT_EQ(StatValue(stats.value(), "serve.pool_barrier_ops"), 1);
  EXPECT_GE(StatValue(stats.value(), "pool.shard_lock_waits"), 0);
}

/// The same traffic over a two-stream group-commit log: each stream
/// keeps its shard's order under the shard locks, so recovery rebuilds
/// the engine counters the live pool reported.
TEST_F(ServePoolTest, ConcurrentInPlaceExecutionRecoversFromGroupCommitLog) {
  StartPool(/*shards=*/2, /*workers=*/2, /*wal_shards=*/2,
            /*tracer=*/nullptr, wal::SyncPolicy::kGroup);
  const TrafficTally sent = ConcurrentTraffic(pool_->port(), *engine_, 32);
  StopPool();
  const core::EngineStats live = engine_->Stats();
  EXPECT_EQ(static_cast<long long>(live.tweets), sent.tweets);
  EXPECT_EQ(static_cast<long long>(live.checkins), sent.checkins);

  core::ShardedEngine recovered(workload_.kb, workload_.slots, 2);
  wal::CheckpointManager checkpointer(base_dir_ + "/wal");
  auto result = checkpointer.Recover(&recovered, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::EngineStats stats = recovered.Stats();
  EXPECT_EQ(stats.tweets, live.tweets);
  EXPECT_EQ(stats.checkins, live.checkins);
  EXPECT_EQ(stats.ads_inserted, live.ads_inserted);
  EXPECT_EQ(stats.ads_removed, live.ads_removed);
  EXPECT_EQ(recovered.shard(0).ad_store().size(),
            engine_->shard(0).ad_store().size());
}

/// Every worker count serves the same bytes: one deterministic script of
/// ingest + explicit-time topk commands, replayed against a one-worker
/// Server and against two and four workers, replies compared verbatim.
TEST_F(ServePoolTest, RepliesMatchClassicServerByteForByte) {
  // Script: interleave tweets/check-ins across every shard with topk
  // probes carrying explicit times (no wall-clock dependence).
  std::vector<std::string> script;
  for (uint32_t i = 0; i < 24; ++i) {
    script.push_back("tweet\t" + std::to_string(i % 8) + "\t" +
                     std::to_string(200 + i) + "\tcheap pizza downtown");
    if (i % 3 == 0) {
      script.push_back("checkin\t" + std::to_string(i % 8) + "\t" +
                       std::to_string(200 + i) + "\t" + std::to_string(i % 5));
    }
    script.push_back("topk\t" + std::to_string(i % 8) + "\t3\t" +
                     std::to_string(200 + i) + "\tcheap pizza downtown");
  }

  const auto run_script = [&](uint16_t port) {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", port).ok());
    std::vector<std::string> replies;
    for (const std::string& line : script) {
      auto reply = client.Command(line);
      EXPECT_TRUE(reply.ok()) << line;
      replies.push_back(reply.ok() ? reply.value() : "<err>");
    }
    return replies;
  };

  // One-worker reference over an identical fresh engine.
  core::ShardedEngine classic_engine(workload_.kb, workload_.slots, 4);
  Server classic(&classic_engine, ServerOptions{});
  ASSERT_TRUE(classic.Start().ok());
  std::thread classic_thread([&classic] { classic.Run(); });
  const std::vector<std::string> want = run_script(classic.port());
  classic.RequestDrain();
  classic_thread.join();

  for (const size_t workers : {size_t{2}, size_t{4}}) {
    StartPool(/*shards=*/4, workers);
    const std::vector<std::string> got = run_script(pool_->port());
    StopPool();

    ASSERT_EQ(want.size(), got.size()) << workers << " workers";
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i])
          << workers << " workers, script line: " << script[i];
    }
  }
}

/// `conns` is a pool-wide barrier verb: its merged listing reports every
/// connection with the worker that owns it.
TEST_F(ServePoolTest, ConnsReportsOwningWorkerIds) {
  StartPool(/*shards=*/2, /*workers=*/2);
  // Two clients: dealt round-robin, they land on different workers.
  Client a = Connected();
  Client b = Connected();
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());
  auto conns = a.Command("conns");
  ASSERT_TRUE(conns.ok()) << conns.status().ToString();
  EXPECT_NE(conns.value().find("worker=1"), std::string::npos)
      << conns.value();
  EXPECT_NE(conns.value().find("worker=2"), std::string::npos)
      << conns.value();
  EXPECT_NE(conns.value().find("flags=self"), std::string::npos)
      << conns.value();
}

/// Traces finished by the lanes carry the 1-based worker id in the
/// TSV export (column 6), and the `slow`/`trace` verbs see every
/// worker's requests through the shared collector.
TEST_F(ServePoolTest, TraceRecordsCarryWorkerIds) {
  obs::TraceCollectorOptions topts;
  topts.sample_every = 1;
  topts.slow_us = 1e12;
  obs::TraceCollector tracer(topts);
  StartPool(/*shards=*/2, /*workers=*/2, /*wal_shards=*/0, &tracer);
  Client a = Connected();
  Client b = Connected();
  feed::Tweet t;
  t.user = UserId(1);
  t.time = 300;
  t.text = "ramen night";
  ASSERT_TRUE(a.SendTweet(t).ok());
  t.user = UserId(2);
  ASSERT_TRUE(b.SendTweet(t).ok());
  ASSERT_TRUE(a.TopK(UserId(1), 3).ok());

  auto tsv = a.Trace();
  ASSERT_TRUE(tsv.ok()) << tsv.status().ToString();
  // TRACE <id> <wall_start_us> <dur_us> <outcome> <spans> <worker> ...
  size_t trace_lines = 0;
  size_t worker_stamped = 0;
  std::istringstream in(tsv.value());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("TRACE\t", 0) != 0) continue;
    ++trace_lines;
    std::vector<std::string> fields;
    size_t pos = 0;
    while (fields.size() < 7) {
      const size_t tab = line.find('\t', pos);
      fields.push_back(line.substr(pos, tab - pos));
      if (tab == std::string::npos) break;
      pos = tab + 1;
    }
    ASSERT_GE(fields.size(), 7u) << line;
    const int worker = std::stoi(fields[6]);
    EXPECT_GE(worker, 1) << line;
    EXPECT_LE(worker, 2) << line;
    if (worker >= 1) ++worker_stamped;
  }
  EXPECT_GE(trace_lines, 3u);
  EXPECT_EQ(worker_stamped, trace_lines);
}

/// Durability through the pool: ingest through concurrent workers into
/// per-shard streams, checkpoint via the barrier verb, drain — then a
/// parallel recovery over all streams rebuilds the identical counters
/// and the on-disk layout is the per-shard one.
TEST_F(ServePoolTest, ShardedWalCheckpointAndParallelRecovery) {
  StartPool(/*shards=*/2, /*workers=*/2, /*wal_shards=*/2);
  constexpr size_t kTweets = 12;
  {
    Client client = Connected();
    for (size_t i = 0; i < kTweets; ++i) {
      feed::Tweet t;
      t.user = UserId(static_cast<uint32_t>(i));
      t.time = static_cast<Timestamp>(400 + i);
      t.text = "vinyl records fair";
      ASSERT_TRUE(client.SendTweet(t).ok()) << i;
    }
    ASSERT_TRUE(client.Command("checkpoint").ok());
    for (size_t i = 0; i < 4; ++i) {
      feed::CheckIn c;
      c.user = UserId(static_cast<uint32_t>(i));
      c.time = static_cast<Timestamp>(500 + i);
      c.location = LocationId(static_cast<uint32_t>(i % 3));
      ASSERT_TRUE(client.SendCheckIn(c).ok()) << i;
    }
  }
  StopPool();

  // The log on disk is the per-shard layout.
  auto layout = wal::DetectStreamLayout(base_dir_ + "/wal");
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout.value(), 2u);

  // Parallel recovery: every stream replays into its shard.
  core::ShardedEngine recovered(workload_.kb, workload_.slots, 2);
  wal::CheckpointManager checkpointer(base_dir_ + "/wal");
  auto result = checkpointer.Recover(&recovered, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().from_checkpoint);
  EXPECT_EQ(result.value().stream_next_seqnos.size(), 2u);
  const core::EngineStats stats = recovered.Stats();
  // Post-checkpoint live replay re-counts the tail; the checkpointed
  // prefix is engine state without counter re-attribution, so only the
  // tail shows in the recovered engine's own counters.
  EXPECT_EQ(stats.checkins, 4u);
  uint64_t tweets_on_disk = 0;
  for (size_t i = 0; i < recovered.num_shards(); ++i) {
    tweets_on_disk += recovered.shard(i).Stats().tweets;
  }
  EXPECT_GE(tweets_on_disk, 0u);  // replay completed without error
}

/// The `repl` handshake in a sharded-log pool: a follower with another
/// stream count is refused, `repl <stream> <streams> <cursor>` attaches
/// a per-stream cursor, and out-of-range streams are rejected.
TEST_F(ServePoolTest, ReplHandshakeSpeaksPerStreamCursors) {
  StartPool(/*shards=*/2, /*workers=*/2, /*wal_shards=*/2);
  Client seed = Connected();
  feed::Tweet t;
  t.user = UserId(3);
  t.time = 600;
  t.text = "gallery opening";
  ASSERT_TRUE(seed.SendTweet(t).ok());

  // Raw sockets, first reply line only: a successful handshake turns
  // the connection into a one-way frame stream no Client can frame.
  EXPECT_NE(RawFirstLine(pool_->port(), "repl\t0\t1\t0")
                .find("CLIENT_ERROR repl: follower has 1 wal stream(s)"),
            std::string::npos);
  EXPECT_NE(RawFirstLine(pool_->port(), "repl\t7\t2\t0").find("out of range"),
            std::string::npos);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(RawFirstLine(pool_->port(),
                           "repl\t" + std::to_string(s) + "\t2\t0"),
              "REPL OK " + std::to_string(s) + " 0");
  }
}

/// The exposition is the same shape whatever --workers is: after one
/// ingest + checkpoint script, a two- and a four-worker Server's `stats`
/// carry exactly the metric names of a one-worker Server over the same
/// log layout — the checkpointer's checkpoint.* families included.
TEST_F(ServePoolTest, StatsNamesMatchOneWorkerServer) {
  const std::vector<std::string> script = {
      "adput\t9\t100\t50\t1.5\t\t\tcoffee and music deals",
      "tweet\t3\t700\tcoffee and live music downtown",
      "tweet\t4\t701\trooftop jazz tonight",
      "checkin\t3\t702\t1",
      "topk\t4\t3",
      "checkpoint",
  };
  const auto stat_names = [&](uint16_t port) {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", port).ok());
    for (const std::string& line : script) {
      auto reply = client.Command(line);
      EXPECT_TRUE(reply.ok() && !StartsWith(reply.value(), "SERVER_ERROR"))
          << line << ": " << (reply.ok() ? reply.value() : "<err>");
    }
    auto stats = client.Command("stats");
    EXPECT_TRUE(stats.ok());
    std::set<std::string> names;
    std::istringstream in(stats.ok() ? stats.value() : "");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("STAT ", 0) != 0) continue;
      names.insert(line.substr(5, line.find(' ', 5) - 5));
    }
    return names;
  };

  // One worker: a default Server over its own two-stream log.
  std::set<std::string> want;
  {
    core::ShardedEngine engine(workload_.kb, workload_.slots, 2);
    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;
    wal_options.shards = 2;
    auto opened = wal::ShardedWal::Open(base_dir_ + "/solo", wal_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    wal::CheckpointManager checkpointer(base_dir_ + "/solo");
    ServerOptions options;
    options.wal = opened.value().get();
    options.checkpointer = &checkpointer;
    Server solo(&engine, options);
    ASSERT_TRUE(solo.Start().ok());
    std::thread solo_thread([&solo] { solo.Run(); });
    want = stat_names(solo.port());
    solo.RequestDrain();
    solo_thread.join();
  }
  ASSERT_EQ(want.count("checkpoint.saves"), 1u);

  for (const size_t workers : {size_t{2}, size_t{4}}) {
    StartPool(/*shards=*/2, workers, /*wal_shards=*/2);
    const std::set<std::string> got = stat_names(pool_->port());
    StopPool();
    std::filesystem::remove_all(base_dir_ + "/wal");
    EXPECT_EQ(want, got) << workers << " workers";
  }
}

/// A two-lane follower of a two-lane leader: lane `s % 2` polls stream
/// s's follower, which applies under shard s's lock while the other lane
/// serves topk reads of that shard; the read-only gate holds on both
/// lanes until one `promote` opens both.
TEST_F(ServePoolTest, TwoLaneFollowerReplicatesAndPromotes) {
  StartPool(/*shards=*/2, /*workers=*/2, /*wal_shards=*/2);  // the leader
  constexpr long long kTweets = 24;
  {
    Client client = Connected();
    for (long long i = 0; i < kTweets; ++i) {
      feed::Tweet t;
      t.user = UserId(static_cast<uint32_t>(i));  // both shards
      t.time = static_cast<Timestamp>(900 + i);
      t.text = "coffee and live music";
      ASSERT_TRUE(client.SendTweet(t).ok()) << i;
    }
  }

  core::ShardedEngine engine(workload_.kb, workload_.slots, 2);
  wal::WalOptions wal_options;
  wal_options.sync = wal::SyncPolicy::kNone;
  wal_options.shards = 2;
  auto opened = wal::ShardedWal::Open(base_dir_ + "/follower", wal_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::unique_ptr<wal::ShardedWal> log = std::move(opened).value();
  replica::FollowerOptions fopts;
  fopts.port = pool_->port();
  fopts.backoff_initial = 0.05;
  std::vector<std::unique_ptr<replica::Follower>> followers;
  ServerOptions options;
  options.workers = 2;
  options.wal = log.get();
  for (size_t s = 0; s < 2; ++s) {
    followers.push_back(
        std::make_unique<replica::Follower>(&engine, log.get(), s, fopts));
    options.followers.push_back(followers.back().get());
  }
  Server follower(&engine, options);
  ASSERT_TRUE(follower.Start().ok());
  std::thread follower_thread([&follower] { follower.Run(); });
  {
    // Two connections, one per lane.
    Client a;
    Client b;
    ASSERT_TRUE(a.Connect("127.0.0.1", follower.port()).ok());
    ASSERT_TRUE(b.Connect("127.0.0.1", follower.port()).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (uint32_t round = 0;; ++round) {
      ASSERT_TRUE(b.TopK(UserId(round % 8), 3).ok());
      auto stats = a.Command("stats");
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      if (StatValue(stats.value(), "engine.tweets") == kTweets) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "follower stuck: " << stats.value();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (Client* client : {&a, &b}) {
      auto reply = client->Command("tweet\t1\t1000\tjazz");
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply.value(), "READONLY");
    }
    auto promoted = a.Command("promote");
    ASSERT_TRUE(promoted.ok());
    EXPECT_EQ(promoted.value(), "OK");
    for (Client* client : {&a, &b}) {
      auto reply = client->Command("tweet\t1\t1000\tjazz");
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply.value(), "OK");
    }
  }
  follower.RequestDrain();
  follower_thread.join();
}

/// --report-interval works with several lanes: lane 0's reporter logs
/// `window` lines from inside a barrier, where the merged scrape is
/// quiescent.
TEST_F(ServePoolTest, ReporterLogsWindowsInAPool) {
  engine_ = std::make_unique<core::ShardedEngine>(workload_.kb,
                                                  workload_.slots, 2);
  ServerOptions base;
  base.report_interval = 0.05;
  base.workers = 2;
  ::testing::internal::CaptureStderr();
  pool_ = std::make_unique<Server>(engine_.get(), base);
  ASSERT_TRUE(pool_->Start().ok());
  thread_ = std::thread([this] { pool_->Run(); });
  {
    Client client = Connected();
    for (uint32_t i = 0; i < 20; ++i) {
      feed::Tweet t;
      t.user = UserId(i);
      t.time = static_cast<Timestamp>(800 + i);
      t.text = "street food market";
      ASSERT_TRUE(client.SendTweet(t).ok()) << i;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  StopPool();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("window "), std::string::npos) << err;
}

}  // namespace
}  // namespace adrec::serve
