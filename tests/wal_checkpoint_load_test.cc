#include "wal/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/logging.h"
#include "core/snapshot.h"
#include "feed/workload.h"
#include "wal/delta/delta_checkpoint.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace adrec::wal {
namespace {

/// Table-driven rejection coverage for checkpoint loading: every way a
/// checkpoint directory can be damaged (missing file, truncation, size
/// mismatch, corrupt manifest, delta hash mismatch) must cause recovery
/// to REJECT the damaged state and fall back — never to load a wrong
/// engine, and never to fail outright while the log can still rebuild
/// everything (analysis_retention defaults to keep-everything, so the
/// full log is always behind the checkpoint).
class WalCheckpointLoadTest : public ::testing::Test {
 protected:
  WalCheckpointLoadTest() {
    root_ = (std::filesystem::temp_directory_path() /
             ("adrec_ckptload_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    feed::WorkloadOptions opts;
    opts.seed = 321;
    opts.num_users = 8;
    opts.num_places = 6;
    opts.num_ads = 3;
    opts.days = 2;
    workload_ = feed::GenerateWorkload(opts);
    events_ = workload_.MergedEvents();
  }
  ~WalCheckpointLoadTest() override { std::filesystem::remove_all(root_); }

  /// Streams ads + events with a mid-stream checkpoint into `dir`, and
  /// returns the never-crashed reference engine.
  std::unique_ptr<core::ShardedEngine> BuildLog(const std::string& dir,
                                                CheckpointMode mode) {
    CheckpointOptions copts;
    copts.mode = mode;
    CheckpointManager manager(dir, copts);
    auto log = ShardedWal::Open(dir);
    ADREC_CHECK(log.ok());
    WalWriter* w = log.value()->stream(0);
    auto engine = NewEngine();
    const size_t mark = events_.size() / 2;
    const size_t crash = events_.size() * 3 / 4;
    for (const feed::Ad& ad : workload_.ads) {
      feed::FeedEvent ev;
      ev.kind = feed::EventKind::kAdInsert;
      ev.ad = ad;
      ADREC_CHECK(w->Append(EncodeEventPayload(ev)).ok());
      (void)engine->InsertAd(ad);
    }
    for (size_t i = 0; i < crash; ++i) {
      ADREC_CHECK(w->Append(EncodeEventPayload(events_[i])).ok());
      engine->OnEvent(events_[i]);
      if (i == mark) {
        ADREC_CHECK(
            manager.Checkpoint(*engine, log.value().get(), events_[i].time)
                .ok());
      }
    }
    return engine;
  }

  std::unique_ptr<core::ShardedEngine> NewEngine() {
    return std::make_unique<core::ShardedEngine>(workload_.kb,
                                                 workload_.slots, 1);
  }

  std::vector<std::string> Serialized(const core::ShardedEngine& engine) {
    std::vector<std::string> out;
    for (size_t s = 0; s < engine.num_shards(); ++s) {
      auto files = core::SerializeEngineSnapshot(engine.shard(s));
      EXPECT_TRUE(files.ok()) << files.status().ToString();
      for (const core::SnapshotFile& f : files.value()) {
        out.push_back(f.name + "\n" + f.contents);
      }
    }
    return out;
  }

  std::string root_;
  feed::Workload workload_;
  std::vector<feed::FeedEvent> events_;
};

struct RejectionCase {
  const char* name;
  CheckpointMode mode;
  /// True: recovery must REFUSE outright (the manifest promised state
  /// the files cannot deliver — replaying the log instead could be
  /// silently wrong if the checkpoint had truncated it). False: the
  /// damage is detected before commitment, so recovery falls back to
  /// the log alone and still rebuilds the exact pre-crash state.
  bool hard_fail;
  /// Damages the checkpoint state under the log dir.
  std::function<void(const std::string& dir)> corrupt;
};

TEST_F(WalCheckpointLoadTest, DamagedCheckpointsAreRejectedNotLoaded) {
  const std::vector<RejectionCase> cases = {
      {"classic_missing_snapshot_file", CheckpointMode::kFull,
       /*hard_fail=*/true,
       [](const std::string& dir) {
         std::filesystem::remove(dir + "/checkpoint/shard0/snapshot_ads.tsv");
       }},
      {"classic_truncated_snapshot_file", CheckpointMode::kFull,
       /*hard_fail=*/true,
       [](const std::string& dir) {
         const std::string f = dir + "/checkpoint/shard0/snapshot_profiles.tsv";
         std::filesystem::resize_file(f,
                                      std::filesystem::file_size(f) / 2);
       }},
      {"classic_size_mismatch_grown_file", CheckpointMode::kFull,
       /*hard_fail=*/true,
       [](const std::string& dir) {
         std::ofstream out(dir + "/checkpoint/shard0/snapshot_ads.tsv",
                           std::ios::app);
         out << "X trailing garbage past the manifest-recorded size\n";
       }},
      {"classic_corrupt_manifest_line", CheckpointMode::kFull,
       /*hard_fail=*/false,
       [](const std::string& dir) {
         std::ofstream out(dir + "/checkpoint/MANIFEST.tsv",
                           std::ios::trunc);
         out << "K not-a-number\n";
       }},
      {"classic_manifest_missing", CheckpointMode::kFull,
       /*hard_fail=*/false,
       [](const std::string& dir) {
         std::filesystem::remove(dir + "/checkpoint/MANIFEST.tsv");
       }},
      {"delta_missing_referenced_file", CheckpointMode::kDelta,
       /*hard_fail=*/false,
       [](const std::string& dir) {
         auto head = delta::ResolveHead(dir);
         ASSERT_TRUE(head.ok());
         const delta::FileRef& f = head.value().files.front();
         std::filesystem::remove(delta::DeltaDir(dir) + "/" +
                                 delta::GenDirName(f.src_gen) + "/" + f.rel);
       }},
      {"delta_hash_mismatch_same_size", CheckpointMode::kDelta,
       /*hard_fail=*/false,
       [](const std::string& dir) {
         auto head = delta::ResolveHead(dir);
         ASSERT_TRUE(head.ok());
         const delta::FileRef& f = head.value().files.front();
         const std::string path = delta::DeltaDir(dir) + "/" +
                                  delta::GenDirName(f.src_gen) + "/" + f.rel;
         std::fstream io(path,
                         std::ios::in | std::ios::out | std::ios::binary);
         char c = 0;
         io.read(&c, 1);
         io.seekp(0);
         c = static_cast<char>(c ^ 0x5a);
         io.write(&c, 1);
       }},
      {"delta_current_points_nowhere", CheckpointMode::kDelta,
       /*hard_fail=*/false,
       [](const std::string& dir) {
         auto head = delta::ResolveHead(dir);
         ASSERT_TRUE(head.ok());
         std::filesystem::remove_all(delta::DeltaDir(dir) + "/" +
                                     delta::GenDirName(head.value().gen));
       }},
      {"delta_corrupt_manifest_line", CheckpointMode::kDelta,
       /*hard_fail=*/false,
       [](const std::string& dir) {
         auto head = delta::ResolveHead(dir);
         ASSERT_TRUE(head.ok());
         std::ofstream out(delta::DeltaDir(dir) + "/" +
                               delta::GenDirName(head.value().gen) +
                               "/MANIFEST.tsv",
                           std::ios::trunc);
         out << "F dangling.tsv not-a-size zz 1\n";
       }},
  };

  for (const RejectionCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = root_ + "/" + c.name;
    auto reference = BuildLog(dir, c.mode);

    // checkpoint.old would legitimately satisfy a classic fallback; this
    // table is about REJECTION, so leave only the damaged head.
    std::filesystem::remove_all(dir + "/checkpoint.old");
    c.corrupt(dir);

    CheckpointOptions copts;
    copts.mode = c.mode;
    CheckpointManager manager(dir, copts);
    auto engine = NewEngine();
    auto r = manager.Recover(engine.get());
    if (c.hard_fail) {
      EXPECT_FALSE(r.ok()) << "damaged checkpoint was loaded anyway";
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The damaged checkpoint was not used...
    EXPECT_FALSE(r.value().from_checkpoint);
    EXPECT_FALSE(r.value().from_delta);
    EXPECT_EQ(r.value().window_replayed, 0u);
    // ...and the log alone rebuilt the exact pre-crash state.
    EXPECT_GT(r.value().live_replayed, 0u);
    EXPECT_EQ(Serialized(*reference), Serialized(*engine));
  }
}

TEST_F(WalCheckpointLoadTest, IntactCheckpointIsUsedAsPositiveControl) {
  for (const CheckpointMode mode :
       {CheckpointMode::kFull, CheckpointMode::kDelta}) {
    SCOPED_TRACE(CheckpointModeName(mode));
    const std::string dir =
        root_ + "/control_" + std::string(CheckpointModeName(mode));
    auto reference = BuildLog(dir, mode);

    CheckpointOptions copts;
    copts.mode = mode;
    CheckpointManager manager(dir, copts);
    auto engine = NewEngine();
    auto r = manager.Recover(engine.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().from_checkpoint);
    EXPECT_EQ(r.value().from_delta, mode == CheckpointMode::kDelta);
    EXPECT_GT(r.value().window_replayed, 0u);
    EXPECT_EQ(Serialized(*reference), Serialized(*engine));
  }
}

}  // namespace
}  // namespace adrec::wal
