#include "testkit/differential.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "feed/workload.h"
#include "wal/wal.h"

namespace adrec::testkit {
namespace {

std::string FreshDir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("adrec_repldiff_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

feed::Workload SmallWorkload(uint64_t seed) {
  feed::WorkloadOptions opts;
  opts.seed = seed;
  opts.num_users = 6 + static_cast<size_t>(seed % 4);
  opts.num_places = 5 + static_cast<size_t>(seed % 3);
  opts.num_ads = 2 + static_cast<size_t>(seed % 3);
  opts.days = 2;
  opts.tweets_per_user_day = 3.0;
  opts.checkins_per_user_day = 1.5;
  return feed::GenerateWorkload(opts);
}

/// The kill-the-leader differential of the ISSUE acceptance: 20 seeded
/// leader deaths — several leaving a torn final frame, several killing
/// the leader while the follower is still mid-catch-up — after which the
/// promoted follower must be byte-identical (canonical snapshot compare)
/// to a reference engine fed the replicated prefix of acknowledged
/// records, and must stay identical through post-failover writes. At
/// wal_shards > 1 the leader logs per-shard streams and the follower
/// runs one replication cursor per stream (`repl <s> <streams> <cursor>`),
/// promotion sealing every stream; every shard's snapshot is compared.
void TwentySeededLeaderKills(size_t wal_shards) {
  size_t iterations = 0;
  size_t torn_iterations = 0;
  size_t midcatchup_iterations = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const feed::Workload workload = SmallWorkload(seed);
    const std::vector<feed::FeedEvent> events = workload.MergedEvents();
    ASSERT_GT(events.size(), 10u) << "seed " << seed;

    const std::string tag =
        std::to_string(wal_shards) + "_" + std::to_string(seed);
    DifferentialOptions diff;
    diff.wal_shards = wal_shards;
    diff.wal_dir = FreshDir("leader" + tag);
    diff.replica_wal_dir = FreshDir("follower" + tag);
    diff.replica_snapshot_dir = FreshDir("snap" + tag);
    diff.crash_fraction = 0.25 + 0.03 * static_cast<double>(seed % 10);
    // Every fourth leader dies mid-append, leaving a torn final frame
    // the replication cursor must stop short of.
    diff.crash_torn_tail = (seed % 4 == 0);
    diff.crash_seed = seed;
    // Every third kill happens while the follower is still catching up:
    // promotion from a strict prefix of the acknowledged records.
    diff.replica_catchup_fraction =
        (seed % 3 == 0) ? 0.4 + 0.05 * static_cast<double>(seed % 5) : 1.0;
    // Tiny segments + tiny batches: the cursor crosses many segment
    // boundaries and the hint resumes across many ReadFrames calls.
    diff.wal_segment_bytes = 4 * 1024;
    diff.replica_batch_bytes = 1024;
    const DifferentialChecker checker(workload.kb, workload.slots, diff);

    const ReplicaPromotionReport report =
        checker.RunReplicaPromotion(workload.ads, events);
    ASSERT_TRUE(report.identical)
        << "seed " << seed << ": " << report.detail;
    EXPECT_GT(report.acknowledged, 0u) << "seed " << seed;
    EXPECT_GT(report.post_promote, 0u) << "seed " << seed;
    if (diff.replica_catchup_fraction < 1.0) {
      EXPECT_LT(report.replicated, report.acknowledged) << "seed " << seed;
      ++midcatchup_iterations;
    } else {
      // Fully caught up: the follower holds every acknowledged record —
      // nothing durable was lost in the failover.
      EXPECT_EQ(report.replicated, report.acknowledged) << "seed " << seed;
    }
    if (diff.crash_torn_tail) ++torn_iterations;

    std::filesystem::remove_all(diff.wal_dir);
    std::filesystem::remove_all(diff.replica_wal_dir);
    std::filesystem::remove_all(diff.replica_snapshot_dir);
    ++iterations;
  }
  EXPECT_EQ(iterations, 20u);
  EXPECT_GE(torn_iterations, 1u);
  EXPECT_GE(midcatchup_iterations, 1u);
}

TEST(ReplicaPromotionDifferential, TwentySeededLeaderKillsPromoteExactly) {
  TwentySeededLeaderKills(1);
}

TEST(ReplicaPromotionDifferential, TwentySeededLeaderKillsTwoStreams) {
  TwentySeededLeaderKills(2);
}

TEST(ReplicaPromotionDifferential, TwentySeededLeaderKillsFourStreams) {
  TwentySeededLeaderKills(4);
}

/// The follower's own log is itself recoverable: after promotion, a
/// crash-restart of the promoted follower from its replica WAL rebuilds
/// the identical engine (the replicated records were durably logged
/// before they were applied).
TEST(ReplicaPromotionDifferential, FollowerLogSupportsItsOwnRecovery) {
  const feed::Workload workload = SmallWorkload(7);
  const std::vector<feed::FeedEvent> events = workload.MergedEvents();

  DifferentialOptions diff;
  diff.wal_dir = FreshDir("ownrec_leader");
  diff.replica_wal_dir = FreshDir("ownrec_follower");
  diff.replica_snapshot_dir = FreshDir("ownrec_snap");
  diff.crash_fraction = 0.6;
  const DifferentialChecker checker(workload.kb, workload.slots, diff);
  const ReplicaPromotionReport report =
      checker.RunReplicaPromotion(workload.ads, events);
  ASSERT_TRUE(report.identical) << report.detail;

  // The follower WAL must carry the replicated prefix plus the
  // post-promotion writes, frame-contiguous from seqno 1.
  wal::CursorHint hint;
  uint64_t next = 1;
  uint64_t records = 0;
  for (;;) {
    auto batch =
        wal::ReadFrames(diff.replica_wal_dir, next, UINT64_MAX, 64 * 1024,
                        &hint);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    records += batch.value().records;
    next = batch.value().next_seqno;
    if (batch.value().at_end) break;
  }
  EXPECT_EQ(records, report.replicated + report.post_promote);

  std::filesystem::remove_all(diff.wal_dir);
  std::filesystem::remove_all(diff.replica_wal_dir);
  std::filesystem::remove_all(diff.replica_snapshot_dir);
}

}  // namespace
}  // namespace adrec::testkit
