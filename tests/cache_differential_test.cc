// The cached≡uncached differential that pins the topk result cache
// (DESIGN.md §14): twenty seeded traces drive a cache-enabled daemon A
// and an uncached oracle B in lockstep over real sockets — every write
// mirrored to both, every probe issued to both in the same order — and
// every reply must match byte-for-byte at every stream clock. Probes are
// deliberately hit-heavy (hot-user repeats, replays of earlier shapes)
// and the trace interleaves tweets, check-ins and ad churn so entries
// are filled, hit, revalidated and invalidated throughout.
//
// Serving charges (budget decrements, frequency-cap records) are real
// state, so the oracle is subjected to exactly the same query sequence:
// a probe that hits in A still charges A's engine (ChargeCachedTopK),
// and B charges through the ordinary topk path — divergence in either
// direction breaks the byte comparison.
//
// Restart phase: serve-time charges are intentionally not write-ahead
// logged (see wal_crash_differential_test), so A and B restart
// *together* — both recover the identical ingest-only state (even seeds
// through a mid-run `checkpoint` + tail replay, odd seeds from the log
// alone), A comes back with a cold cache, and equivalence must still
// hold for the rest of the trace.
//
// Follower phase: a cache-enabled follower FA replicates from A while an
// uncached follower FB replicates from B. Both apply the same frames, so
// they hold identical ingest-only engine state; probing them in lockstep
// pins that a READONLY follower's cache invalidates on applied frames.
//
// A never-hitting cache would pass all of this trivially, so each seed
// also asserts a floor on A's cache.hits.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/random.h"
#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "replica/follower.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace adrec::serve {
namespace {

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
    engine.reset();
    checkpointer.reset();
  }
  ~Daemon() { Stop(); }
};

class CacheDifferentialTest : public ::testing::Test {
 protected:
  CacheDifferentialTest() {
    base_dir_ = (std::filesystem::temp_directory_path() /
                 ("adrec_cachediff_" + std::to_string(::getpid())))
                    .string();
    std::filesystem::remove_all(base_dir_);
    std::filesystem::create_directories(base_dir_);
  }
  ~CacheDifferentialTest() override {
    std::filesystem::remove_all(base_dir_);
  }

  /// Starts (or restarts, when its wal_dir already has history) one
  /// daemon. Cache capacity 0 = the uncached oracle.
  void StartDaemon(Daemon* d, const feed::WorkloadOptions& wopts,
                   const std::string& tag, size_t num_shards,
                   const core::EngineOptions& eopts,
                   const cache::TopkCacheOptions& cache_opts,
                   uint16_t leader_port = 0) {
    d->workload = feed::GenerateWorkload(wopts);
    d->wal_dir = base_dir_ + "/" + tag;
    d->checkpointer = std::make_unique<wal::CheckpointManager>(d->wal_dir);
    d->engine = std::make_unique<core::ShardedEngine>(
        d->workload.kb, d->workload.slots, num_shards, eopts);
    auto recovered = d->checkpointer->Recover(d->engine.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;
    auto opened = wal::ShardedWal::Open(d->wal_dir, wal_options,
                                        recovered.value().stream_next_seqnos);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    d->wal = std::move(opened).value();

    ServerOptions options;
    options.wal = d->wal.get();
    options.checkpointer = d->checkpointer.get();
    options.topk_cache = cache_opts;
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

  double CacheHits(Client* client) {
    auto metrics = client->Metrics();
    EXPECT_TRUE(metrics.ok());
    double hits = 0.0;
    MetricValue(metrics.value(), "adrec_cache_hits_total", &hits);
    return hits;
  }

  void WaitForApplied(Client* client, uint64_t seqno) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
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
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::string base_dir_;
};

/// One lockstep pair: the same line goes to both daemons; replies must
/// agree byte-for-byte.
void MirrorAndCompare(Client* a, Client* b, const std::string& line,
                      uint64_t seed, size_t step) {
  auto ra = a->Command(line);
  auto rb = b->Command(line);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ASSERT_EQ(ra.value(), rb.value())
      << "seed " << seed << " step " << step << " diverged on: " << line;
}

TEST_F(CacheDifferentialTest, TwentySeededTracesMatchUncachedExactly) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const size_t num_shards = (seed % 3 == 0) ? 2 : 1;

    feed::WorkloadOptions wopts;
    wopts.seed = 9000 + seed;
    wopts.num_users = 8 + static_cast<size_t>(seed % 5);
    wopts.num_places = 6 + static_cast<size_t>(seed % 3);
    wopts.num_ads = 3 + static_cast<size_t>(seed % 3);
    wopts.days = 2;
    wopts.tweets_per_user_day = 2.0;
    wopts.checkins_per_user_day = 1.0;
    const feed::Workload workload = feed::GenerateWorkload(wopts);

    core::EngineOptions eopts;
    // Odd seeds serve with a tight frequency cap (exercises hit-time
    // revalidation, charge mirroring and OnUserCharged fan-out); even
    // seeds disable it.
    eopts.frequency_cap.max_impressions = (seed % 2 == 1) ? 3 : 0;
    eopts.frequency_cap.window = 6 * 3600;

    cache::TopkCacheOptions cache_opts;
    cache_opts.capacity = (seed % 4 == 0) ? 4 : 64;  // tiny = evictions
    cache_opts.admission = (seed % 2 == 0)
                               ? cache::TopkCacheOptions::Admission::kAlways
                               : cache::TopkCacheOptions::Admission::kFrequency;

    const std::string tag = "s" + std::to_string(seed);
    Daemon a;  // cached
    Daemon b;  // the uncached oracle
    StartDaemon(&a, wopts, tag + "_a", num_shards, eopts, cache_opts);
    StartDaemon(&b, wopts, tag + "_b", num_shards, eopts, {});
    auto ca = std::make_unique<Client>(Connected(a));
    auto cb = std::make_unique<Client>(Connected(b));

    // Inventory over the wire so it is WAL-logged (the followers replay
    // it). Every third seed tightens some budgets so entries go stale by
    // exhaustion and must be caught by hit-time revalidation.
    std::vector<feed::Ad> live_ads = workload.ads;
    uint64_t acked = 0;
    for (feed::Ad& ad : live_ads) {
      if (seed % 3 == 0 && ad.id.value % 2 == 0) ad.budget_impressions = 7;
      ASSERT_TRUE(ca->PutAd(ad).ok());
      ASSERT_TRUE(cb->PutAd(ad).ok());
      ++acked;
    }

    const std::vector<feed::FeedEvent> events = workload.MergedEvents();
    Rng rng(seed * 77 + 5);
    ZipfSampler hot_users(wopts.num_users, 1.1);
    std::vector<std::string> replayable;  // explicit-time shapes seen
    uint32_t next_ad_id = 10000;
    size_t step = 0;

    // Issues one probe batch: a hot-user time-less repeat (the hit
    // generator), a random-user probe, and sometimes a replay of an
    // earlier explicit-time shape.
    auto probe_batch = [&]() {
      const uint32_t hot = static_cast<uint32_t>(hot_users.Sample(rng));
      // Issued twice back-to-back: the immediate repeat is the
      // guaranteed-hit shape (nothing can invalidate in between), and
      // serving it from cache still charges the engine — the repeat is
      // where hit-time revalidation equivalence gets exercised.
      MirrorAndCompare(ca.get(), cb.get(),
                       FormatTopKCmd(UserId(hot), 3), seed, step);
      MirrorAndCompare(ca.get(), cb.get(),
                       FormatTopKCmd(UserId(hot), 3), seed, step);
      const uint32_t user =
          static_cast<uint32_t>(rng.NextBounded(wopts.num_users));
      const size_t k = 1 + static_cast<size_t>(rng.NextBounded(5));
      if (rng.NextBool(0.5)) {
        const feed::Tweet& t =
            workload.tweets[rng.NextBounded(workload.tweets.size())];
        const std::string line =
            FormatTopKCmd(UserId(user), k, t.time, t.text);
        replayable.push_back(line);
        MirrorAndCompare(ca.get(), cb.get(), line, seed, step);
      } else {
        MirrorAndCompare(ca.get(), cb.get(), FormatTopKCmd(UserId(user), k),
                         seed, step);
      }
      if (!replayable.empty() && rng.NextBool(0.4)) {
        MirrorAndCompare(
            ca.get(), cb.get(),
            replayable[rng.NextBounded(replayable.size())], seed, step);
      }
    };

    // One trace step: a few ingest events into both daemons, sometimes
    // ad churn, then a probe batch with byte comparison.
    auto run_steps = [&](size_t first_event, size_t last_event) {
      for (size_t i = first_event; i < last_event; ++i) {
        const feed::FeedEvent& event = events[i];
        if (event.kind == feed::EventKind::kTweet) {
          ASSERT_TRUE(ca->SendTweet(event.tweet).ok());
          ASSERT_TRUE(cb->SendTweet(event.tweet).ok());
          ++acked;
        } else if (event.kind == feed::EventKind::kCheckIn) {
          ASSERT_TRUE(ca->SendCheckIn(event.check_in).ok());
          ASSERT_TRUE(cb->SendCheckIn(event.check_in).ok());
          ++acked;
        }
        if (rng.NextBool(0.08)) {  // ad churn
          if (!live_ads.empty() && rng.NextBool(0.4)) {
            const size_t victim = rng.NextBounded(live_ads.size());
            const AdId doomed = live_ads[victim].id;
            live_ads.erase(live_ads.begin() + victim);
            ASSERT_TRUE(ca->DeleteAd(doomed).ok());
            ASSERT_TRUE(cb->DeleteAd(doomed).ok());
            ++acked;
          } else {
            feed::Ad ad = workload.ads[rng.NextBounded(workload.ads.size())];
            ad.id = AdId(next_ad_id++);
            if (rng.NextBool(0.3)) ad.target_locations.clear();
            if (rng.NextBool(0.3)) ad.target_slots.clear();
            if (rng.NextBool(0.3)) ad.budget_impressions = 5;
            ASSERT_TRUE(ca->PutAd(ad).ok());
            ASSERT_TRUE(cb->PutAd(ad).ok());
            live_ads.push_back(ad);
            ++acked;
          }
        }
        if (i % 2 == 0) {
          probe_batch();
          if (::testing::Test::HasFatalFailure()) return;
        }
        ++step;
      }
    };

    const size_t phase1_end = events.size() / 2;
    run_steps(0, phase1_end);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    // Counters die with the process; bank the pre-restart hits.
    const double phase1_hits = CacheHits(ca.get());

    // --- Restart phase: both daemons bounce together. Even seeds write
    // a checkpoint first (snapshot restore + tail replay); odd seeds
    // recover from the log alone. A's cache comes back cold.
    if (seed % 2 == 0) {
      auto cpa = ca->Command("checkpoint");
      ASSERT_TRUE(cpa.ok()) << cpa.status().ToString();
      ASSERT_EQ(cpa.value().rfind("OK", 0), 0u) << cpa.value();
      auto cpb = cb->Command("checkpoint");
      ASSERT_TRUE(cpb.ok());
      ASSERT_EQ(cpb.value().rfind("OK", 0), 0u) << cpb.value();
    }
    ca.reset();
    cb.reset();
    a.Stop();
    b.Stop();
    StartDaemon(&a, wopts, tag + "_a", num_shards, eopts, cache_opts);
    StartDaemon(&b, wopts, tag + "_b", num_shards, eopts, {});
    ca = std::make_unique<Client>(Connected(a));
    cb = std::make_unique<Client>(Connected(b));

    run_steps(phase1_end, events.size());
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    const double leader_hits = phase1_hits + CacheHits(ca.get());
    EXPECT_GE(leader_hits, 5.0)
        << "cache never hit — the differential is vacuous";

    // --- Follower phase: cached follower FA tails A, uncached follower
    // FB tails B. Identical applied frames → identical ingest-only
    // state; probes must agree while frames keep arriving.
    Daemon fa;
    Daemon fb;
    StartDaemon(&fa, wopts, tag + "_fa", num_shards, eopts, cache_opts,
                a.server->port());
    StartDaemon(&fb, wopts, tag + "_fb", num_shards, eopts, {},
                b.server->port());
    Client cfa = Connected(fa);
    Client cfb = Connected(fb);
    WaitForApplied(&cfa, acked);
    WaitForApplied(&cfb, acked);

    auto follower_probes = [&]() {
      for (int round = 0; round < 6; ++round) {
        const uint32_t hot = static_cast<uint32_t>(hot_users.Sample(rng));
        MirrorAndCompare(&cfa, &cfb, FormatTopKCmd(UserId(hot), 3), seed,
                         step);
        MirrorAndCompare(&cfa, &cfb, FormatTopKCmd(UserId(hot), 3), seed,
                         step);
        if (!replayable.empty()) {
          MirrorAndCompare(&cfa, &cfb,
                           replayable[rng.NextBounded(replayable.size())],
                           seed, step);
        }
        ++step;
      }
    };
    follower_probes();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    // More leader writes: the frames reach the followers, FA's cache
    // invalidates on apply, and the probes must still agree.
    for (size_t i = 0; i < std::min<size_t>(events.size(), 10); ++i) {
      feed::Tweet tweet = workload.tweets[i % workload.tweets.size()];
      tweet.user = UserId(static_cast<uint32_t>(hot_users.Sample(rng)));
      ASSERT_TRUE(ca->SendTweet(tweet).ok());
      ASSERT_TRUE(cb->SendTweet(tweet).ok());
      ++acked;
    }
    WaitForApplied(&cfa, acked);
    WaitForApplied(&cfb, acked);
    follower_probes();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_GE(CacheHits(&cfa), 1.0) << "follower cache never hit";
  }
}

}  // namespace
}  // namespace adrec::serve
