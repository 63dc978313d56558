#include "wal/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "feed/workload.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"

namespace adrec::wal {
namespace {

class WalRecoveryTest : public ::testing::Test {
 protected:
  WalRecoveryTest() {
    // Parameterised test names carry a '/': keep the directory flat.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) c = c == '/' ? '_' : c;
    dir_ = (std::filesystem::temp_directory_path() /
            ("adrec_walrec_" + std::to_string(::getpid()) + "_" + name))
               .string();
    std::filesystem::remove_all(dir_);

    feed::WorkloadOptions opts;
    opts.seed = 4242;
    opts.num_users = 8;
    opts.num_places = 6;
    opts.num_ads = 3;
    opts.days = 2;
    workload_ = feed::GenerateWorkload(opts);
    events_ = workload_.MergedEvents();
  }
  ~WalRecoveryTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<core::ShardedEngine> NewEngine(size_t shards = 1) {
    return std::make_unique<core::ShardedEngine>(workload_.kb,
                                                 workload_.slots, shards);
  }

  /// Opens a `streams`-stream log at dir_.
  std::unique_ptr<ShardedWal> OpenLog(size_t streams = 1,
                                      WalOptions options = {}) {
    options.shards = streams;
    auto opened = ShardedWal::Open(dir_, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  /// Logs `ev` the way the daemon does: ad ops to every stream, a feed
  /// event to its owner shard's stream (every event to the one stream of
  /// a one-stream log), counting records per stream in appended_.
  void Log(const core::ShardedEngine& engine, ShardedWal* w,
           const feed::FeedEvent& ev) {
    const size_t n = w->num_streams();
    appended_.resize(n, 0);
    size_t first = 0;
    size_t last = n;
    if (n > 1 && ev.kind == feed::EventKind::kTweet) {
      first = engine.ShardOf(ev.tweet.user);
      last = first + 1;
    } else if (n > 1 && ev.kind == feed::EventKind::kCheckIn) {
      first = engine.ShardOf(ev.check_in.user);
      last = first + 1;
    } else if (ev.kind == feed::EventKind::kTweet ||
               ev.kind == feed::EventKind::kCheckIn) {
      last = 1;
    }
    for (size_t s = first; s < last; ++s) {
      ASSERT_TRUE(w->stream(s)->Append(EncodeEventPayload(ev)).ok());
      ++appended_[s];
    }
  }

  /// Feeds ads + events[0, upto) through `engine`, logging each to `w`.
  void Stream(core::ShardedEngine* engine, ShardedWal* w, size_t upto) {
    for (const feed::Ad& ad : workload_.ads) {
      feed::FeedEvent ev;
      ev.kind = feed::EventKind::kAdInsert;
      ev.ad = ad;
      Log(*engine, w, ev);
      (void)engine->InsertAd(ad);
    }
    for (size_t i = 0; i < upto && i < events_.size(); ++i) {
      Log(*engine, w, events_[i]);
      engine->OnEvent(events_[i]);
    }
  }

  /// The largest per-stream record count logged so far.
  uint64_t MaxAppended() const {
    uint64_t max = 0;
    for (uint64_t a : appended_) max = std::max(max, a);
    return max;
  }

  std::string dir_;
  feed::Workload workload_;
  std::vector<feed::FeedEvent> events_;
  /// Records logged per stream by Log().
  std::vector<uint64_t> appended_;
};

/// Every log shape the one recovery path serves: (engine shards, log
/// streams) — one stream feeding one shard, one stream feeding two
/// shards through the engine's routing, and one stream per shard.
class WalRecoveryShapeTest
    : public WalRecoveryTest,
      public ::testing::WithParamInterface<std::pair<size_t, size_t>> {
 protected:
  size_t shards() const { return GetParam().first; }
  size_t streams() const { return GetParam().second; }
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, WalRecoveryShapeTest,
    ::testing::Values(std::make_pair(size_t{1}, size_t{1}),
                      std::make_pair(size_t{2}, size_t{1}),
                      std::make_pair(size_t{2}, size_t{2})),
    [](const ::testing::TestParamInfo<std::pair<size_t, size_t>>& info) {
      return "shards" + std::to_string(info.param.first) + "_streams" +
             std::to_string(info.param.second);
    });

TEST_F(WalRecoveryTest, EmptyDirectoryRecoversToFreshState) {
  CheckpointManager manager(dir_);
  auto engine = NewEngine();
  auto r = manager.Recover(engine.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().from_checkpoint);
  EXPECT_EQ(r.value().next_seqno, 1u);
  EXPECT_EQ(r.value().window_replayed, 0u);
  EXPECT_EQ(r.value().live_replayed, 0u);
  EXPECT_EQ(engine->Stats().tweets, 0u);
}

TEST_P(WalRecoveryShapeTest, LogOnlyRecoveryRebuildsEverything) {
  const size_t n = events_.size() / 2;
  {
    auto log = OpenLog(streams());
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine(shards());
    Stream(engine.get(), log.get(), n);
  }  // crash

  CheckpointManager manager(dir_);
  auto recovered = NewEngine(shards());
  auto r = manager.Recover(recovered.get(), streams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().from_checkpoint);
  // Ad ops sit in every stream; each feed event in exactly one.
  EXPECT_EQ(r.value().live_replayed, workload_.ads.size() * streams() + n);
  EXPECT_EQ(r.value().window_replayed, 0u);
  EXPECT_EQ(r.value().next_seqno, MaxAppended() + 1);
  ASSERT_EQ(r.value().stream_next_seqnos.size(), streams());
  for (size_t s = 0; s < streams(); ++s) {
    EXPECT_EQ(r.value().stream_next_seqnos[s], appended_[s] + 1) << s;
  }

  // The recovered engine equals a never-crashed reference.
  auto reference = NewEngine(shards());
  for (const feed::Ad& ad : workload_.ads) (void)reference->InsertAd(ad);
  for (size_t i = 0; i < n; ++i) reference->OnEvent(events_[i]);
  const core::EngineStats a = reference->Stats();
  const core::EngineStats b = recovered->Stats();
  EXPECT_EQ(a.tweets, b.tweets);
  EXPECT_EQ(a.checkins, b.checkins);
  EXPECT_EQ(a.ads_inserted, b.ads_inserted);

  const feed::Tweet& probe = workload_.tweets.back();
  const auto ra = reference->TopKAdsForTweet(probe, 3);
  const auto rb = recovered->TopKAdsForTweet(probe, 3);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].ad, rb[i].ad);
    EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
  }
}

TEST_P(WalRecoveryShapeTest, CheckpointSplitsReplayAtTheMark) {
  const size_t mark = events_.size() / 2;
  const size_t crash = events_.size() * 3 / 4;
  CheckpointManager manager(dir_);
  std::vector<uint64_t> marks;
  {
    auto log = OpenLog(streams());
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine(shards());
    Stream(engine.get(), log.get(), mark);
    ASSERT_TRUE(
        manager.Checkpoint(*engine, log.get(), events_[mark].time).ok());
    marks = appended_;
    for (size_t i = mark; i < crash; ++i) {
      Log(*engine, log.get(), events_[i]);
      engine->OnEvent(events_[i]);
    }
  }  // crash

  auto recovered = NewEngine(shards());
  auto r = manager.Recover(recovered.get(), streams());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().from_checkpoint);
  EXPECT_EQ(r.value().checkpoint_seqno,
            *std::max_element(marks.begin(), marks.end()));
  EXPECT_EQ(r.value().stream_checkpoint_seqnos, marks);
  // Everything the checkpoint covers is re-fed window-only; the tail goes
  // through live ingest.
  EXPECT_EQ(r.value().window_replayed,
            workload_.ads.size() * streams() + mark);
  EXPECT_EQ(r.value().live_replayed, crash - mark);
  EXPECT_EQ(r.value().next_seqno, MaxAppended() + 1);
  EXPECT_GT(r.value().max_event_time, 0);

  auto reference = NewEngine(shards());
  for (const feed::Ad& ad : workload_.ads) (void)reference->InsertAd(ad);
  for (size_t i = 0; i < crash; ++i) reference->OnEvent(events_[i]);
  // Event counters are not part of the snapshot and window-only replay
  // does not count: the recovered engine's counters cover the tail era
  // only (the daemon adds the checkpoint-time stats when reporting).
  uint64_t tail_tweets = 0, tail_checkins = 0;
  for (size_t i = mark; i < crash; ++i) {
    tail_tweets += events_[i].kind == feed::EventKind::kTweet;
    tail_checkins += events_[i].kind == feed::EventKind::kCheckIn;
  }
  EXPECT_EQ(recovered->Stats().tweets, tail_tweets);
  EXPECT_EQ(recovered->Stats().checkins, tail_checkins);

  const feed::Tweet& probe = workload_.tweets.back();
  const auto ra = reference->TopKAdsForTweet(probe, 3);
  const auto rb = recovered->TopKAdsForTweet(probe, 3);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].ad, rb[i].ad);
    EXPECT_DOUBLE_EQ(ra[i].score, rb[i].score);
  }
}

TEST_F(WalRecoveryTest, FallsBackToOldCheckpointAcrossSwapWindow) {
  const size_t mark = events_.size() / 3;
  CheckpointManager manager(dir_);
  {
    auto log = OpenLog();
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine();
    Stream(engine.get(), log.get(), mark);
    ASSERT_TRUE(manager.Checkpoint(*engine, log.get(), 0).ok());
  }
  // Simulate a crash inside the next checkpoint's swap window: the new
  // checkpoint directory is gone, the previous one survives as .old.
  std::filesystem::rename(dir_ + "/checkpoint", dir_ + "/checkpoint.old");

  auto recovered = NewEngine();
  auto r = manager.Recover(recovered.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().from_checkpoint);
  EXPECT_EQ(r.value().checkpoint_seqno, workload_.ads.size() + mark);
  EXPECT_GT(recovered->Stats().ads_inserted, 0u);
}

TEST_F(WalRecoveryTest, ShardCountMismatchIsRejected) {
  const size_t mark = events_.size() / 4;
  CheckpointManager manager(dir_);
  {
    auto log = OpenLog();
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine(/*shards=*/2);
    Stream(engine.get(), log.get(), mark);
    ASSERT_TRUE(manager.Checkpoint(*engine, log.get(), 0).ok());
  }
  auto wrong = NewEngine(/*shards=*/3);
  EXPECT_FALSE(manager.Recover(wrong.get()).ok());
  auto right = NewEngine(/*shards=*/2);
  EXPECT_TRUE(manager.Recover(right.get()).ok());
}

TEST_F(WalRecoveryTest, TornFinalRecordIsCutNotFatal) {
  const size_t n = events_.size() / 2;
  uint64_t next = 0;
  {
    auto log = OpenLog();
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine();
    Stream(engine.get(), log.get(), n);
    next = log->stream(0)->next_seqno();
  }
  // The record that never got acknowledged tore halfway through.
  const std::string frame = EncodeFrame(next, EncodeEventPayload(events_[n]));
  auto report = ScanLog(dir_, {});
  ASSERT_TRUE(report.ok());
  {
    std::ofstream out(report.value().segments.back().path,
                      std::ios::binary | std::ios::app);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size() / 3));
  }

  CheckpointManager manager(dir_);
  auto recovered = NewEngine();
  auto r = manager.Recover(recovered.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().torn_bytes_truncated, frame.size() / 3);
  EXPECT_EQ(r.value().live_replayed, workload_.ads.size() + n);
  // The torn record is NOT part of the recovered state, and the next
  // writer reuses its seqno.
  EXPECT_EQ(r.value().next_seqno, next);

  // Recovery physically truncated the tail: a fresh scan is clean.
  auto clean = ScanLog(dir_, {});
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean.value().torn_tail);
}

TEST_F(WalRecoveryTest, RetentionTruncatesCoveredSegments) {
  CheckpointOptions options;
  options.analysis_retention = 0;  // keep nothing older than the mark
  CheckpointManager manager(dir_, options);
  WalOptions wal_options;
  wal_options.segment_bytes = 2048;  // force several sealed segments
  {
    auto log = OpenLog(1, wal_options);
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine();
    Stream(engine.get(), log.get(), events_.size());
    auto before = ScanLog(dir_, {});
    ASSERT_TRUE(before.ok());
    ASSERT_GT(before.value().segments.size(), 2u);
    ASSERT_TRUE(
        manager.Checkpoint(*engine, log.get(), events_.back().time).ok());
  }
  auto after = ScanLog(dir_, {});
  ASSERT_TRUE(after.ok());
  // Sealed segments fully covered by the checkpoint and older than the
  // stream time were unlinked; recovery still works off the checkpoint.
  EXPECT_LT(after.value().segments.size(), 3u);
  auto recovered = NewEngine();
  auto r = manager.Recover(recovered.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().from_checkpoint);
  EXPECT_EQ(r.value().live_replayed, 0u);
}

/// A log read with another stream count than it was written with fails
/// loudly instead of replaying nothing. Both directions: one-stream
/// recovery of a two-stream log, two-stream recovery of a flat log.
TEST_F(WalRecoveryTest, OneStreamRecoveryRefusesATwoStreamLog) {
  {
    auto log = OpenLog(/*streams=*/2);
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine(/*shards=*/2);
    Stream(engine.get(), log.get(), events_.size() / 2);
  }
  CheckpointManager manager(dir_);
  auto recovered = NewEngine(/*shards=*/2);
  auto r = manager.Recover(recovered.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
  auto right = NewEngine(/*shards=*/2);
  EXPECT_TRUE(manager.Recover(right.get(), 2).ok());
}

TEST_F(WalRecoveryTest, TwoStreamRecoveryRefusesAFlatLog) {
  {
    auto log = OpenLog();
    ASSERT_NE(log, nullptr);
    auto engine = NewEngine(/*shards=*/2);
    Stream(engine.get(), log.get(), events_.size() / 2);
  }
  CheckpointManager manager(dir_);
  auto recovered = NewEngine(/*shards=*/2);
  auto r = manager.Recover(recovered.get(), 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
  auto right = NewEngine(/*shards=*/2);
  EXPECT_TRUE(manager.Recover(right.get(), 1).ok());
}

/// Stream s of a per-shard log may only hold shard s's users. A tweet of
/// another shard's user in it is reported as a Status, not an abort.
TEST_F(WalRecoveryTest, ForeignUserInAShardStreamIsAStatus) {
  auto probe = NewEngine(/*shards=*/2);
  feed::FeedEvent ev;
  ev.kind = feed::EventKind::kTweet;
  ev.tweet = workload_.tweets.front();
  for (uint32_t u = 0; probe->ShardOf(ev.tweet.user) != 1; ++u) {
    ev.tweet.user = UserId(u);
  }
  {
    auto log = OpenLog(/*streams=*/2);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->stream(0)->Append(EncodeEventPayload(ev)).ok());
  }
  CheckpointManager manager(dir_);
  auto recovered = NewEngine(/*shards=*/2);
  auto r = manager.Recover(recovered.get(), 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

}  // namespace
}  // namespace adrec::wal
