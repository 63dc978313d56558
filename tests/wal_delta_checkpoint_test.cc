#include "wal/delta/delta_checkpoint.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/snapshot.h"
#include "feed/workload.h"
#include "wal/checkpoint.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace adrec::wal::delta {
namespace {

class WalDeltaCheckpointTest : public ::testing::Test {
 protected:
  WalDeltaCheckpointTest() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("adrec_delta_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    feed::WorkloadOptions opts;
    opts.seed = 77;
    opts.num_users = 8;
    opts.num_places = 6;
    opts.num_ads = 3;
    opts.days = 2;
    workload_ = feed::GenerateWorkload(opts);
    events_ = workload_.MergedEvents();
  }
  ~WalDeltaCheckpointTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<core::ShardedEngine> NewEngine(size_t shards = 2) {
    return std::make_unique<core::ShardedEngine>(workload_.kb,
                                                 workload_.slots, shards);
  }

  /// Feeds ads + events[from, upto) into `engine` (no logging — these
  /// tests exercise the snapshot chain, not the WAL).
  void Feed(core::ShardedEngine* engine, size_t from, size_t upto) {
    if (from == 0) {
      for (const feed::Ad& ad : workload_.ads) (void)engine->InsertAd(ad);
    }
    for (size_t i = from; i < upto && i < events_.size(); ++i) {
      engine->OnEvent(events_[i]);
    }
  }

  /// The engine's full serialized snapshot across shards, for
  /// byte-identity comparisons.
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

  /// Materializes `head` and loads it into a fresh engine.
  std::unique_ptr<core::ShardedEngine> Restore(const DeltaManifest& head) {
    const std::string staging = dir_ + "/restore.tmp";
    std::filesystem::remove_all(staging);
    const Status st = MaterializeCheckpoint(dir_, head, staging);
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto engine = NewEngine(head.num_shards);
    for (size_t s = 0; s < head.num_shards; ++s) {
      const Status load = core::LoadEngineSnapshot(
          staging + "/shard" + std::to_string(s), engine->mutable_shard(s));
      EXPECT_TRUE(load.ok()) << load.ToString();
    }
    return engine;
  }

  std::string dir_;
  feed::Workload workload_;
  std::vector<feed::FeedEvent> events_;
};

TEST_F(WalDeltaCheckpointTest, FirstSaveIsRebaseAndRoundTrips) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);

  auto stats = SaveDeltaCheckpoint(dir_, *engine, 42, {}, 1234, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().rebase);
  EXPECT_EQ(stats.value().gen, 1u);
  EXPECT_EQ(stats.value().files_written, stats.value().files_total);
  EXPECT_EQ(stats.value().chain_len, 1u);

  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().gen, 1u);
  EXPECT_EQ(head.value().wal_seqno, 42u);
  EXPECT_EQ(head.value().stream_time, 1234);
  EXPECT_EQ(head.value().num_shards, 2u);
  EXPECT_EQ(head.value().base_gen, 0u);
  EXPECT_EQ(head.value().depth, 0u);

  auto restored = Restore(head.value());
  EXPECT_EQ(Serialized(*engine), Serialized(*restored));
}

TEST_F(WalDeltaCheckpointTest, UnchangedStateCarriesEverythingByReference) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 10, {}, 0, {}).ok());

  // Nothing mutated: the second generation writes zero snapshot bytes.
  auto stats = SaveDeltaCheckpoint(dir_, *engine, 11, {}, 0, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().rebase);
  EXPECT_EQ(stats.value().gen, 2u);
  EXPECT_EQ(stats.value().files_written, 0u);
  EXPECT_EQ(stats.value().bytes_written, 0u);
  // chain_len counts generations the head pins on disk: gen 2 (holding
  // only the manifest) plus gen 1, where every file ref points.
  EXPECT_EQ(stats.value().chain_len, 2u);

  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().gen, 2u);
  EXPECT_EQ(head.value().base_gen, 1u);
  EXPECT_EQ(head.value().depth, 1u);
  for (const FileRef& f : head.value().files) EXPECT_EQ(f.src_gen, 1u);

  auto restored = Restore(head.value());
  EXPECT_EQ(Serialized(*engine), Serialized(*restored));
}

TEST_F(WalDeltaCheckpointTest, DeltaWritesOnlyChangedFiles) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  auto first = SaveDeltaCheckpoint(dir_, *engine, 10, {}, 0, {});
  ASSERT_TRUE(first.ok());

  Feed(engine.get(), events_.size() / 2, events_.size());
  auto second = SaveDeltaCheckpoint(dir_, *engine, 20, {}, 0, {});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second.value().rebase);
  // Some files changed (profiles/counters moved), but constant files
  // (e.g. an untouched facet) carry over — strictly fewer bytes than a
  // rebase would write.
  EXPECT_GT(second.value().files_written, 0u);
  EXPECT_LE(second.value().files_written, second.value().files_total);
  EXPECT_LT(second.value().bytes_written, second.value().bytes_total);

  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok());
  auto restored = Restore(head.value());
  EXPECT_EQ(Serialized(*engine), Serialized(*restored));
}

TEST_F(WalDeltaCheckpointTest, ShardCleanHintSkipsSerialization) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 10, {}, 0, {}).ok());

  DeltaSaveOptions opts;
  opts.shard_clean = {true, true};
  auto stats = SaveDeltaCheckpoint(dir_, *engine, 11, {}, 0, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().files_written, 0u);

  auto restored = Restore(ResolveHead(dir_).value());
  EXPECT_EQ(Serialized(*engine), Serialized(*restored));
}

TEST_F(WalDeltaCheckpointTest, RebaseEveryBoundsTheChain) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 3);
  DeltaSaveOptions opts;
  opts.rebase_every = 2;

  auto s1 = SaveDeltaCheckpoint(dir_, *engine, 1, {}, 0, opts);
  Feed(engine.get(), events_.size() / 3, events_.size() / 2);
  auto s2 = SaveDeltaCheckpoint(dir_, *engine, 2, {}, 0, opts);
  Feed(engine.get(), events_.size() / 2, events_.size());
  auto s3 = SaveDeltaCheckpoint(dir_, *engine, 3, {}, 0, opts);
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  EXPECT_TRUE(s1.value().rebase);
  EXPECT_FALSE(s2.value().rebase);
  EXPECT_TRUE(s3.value().rebase);  // depth 1 + 1 >= rebase_every
  EXPECT_EQ(s3.value().chain_len, 1u);

  auto restored = Restore(ResolveHead(dir_).value());
  EXPECT_EQ(Serialized(*engine), Serialized(*restored));
}

TEST_F(WalDeltaCheckpointTest, RebaseGarbageCollectsUnreferencedGens) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  DeltaSaveOptions opts;
  opts.rebase_every = 2;
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 1, {}, 0, opts).ok());
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 2, {}, 0, opts).ok());
  // Gen 3 rebases: gens 1 and 2 are no longer referenced.
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 3, {}, 0, opts).ok());

  EXPECT_FALSE(std::filesystem::exists(DeltaDir(dir_) + "/" + GenDirName(1)));
  EXPECT_FALSE(std::filesystem::exists(DeltaDir(dir_) + "/" + GenDirName(2)));
  EXPECT_TRUE(std::filesystem::exists(DeltaDir(dir_) + "/" + GenDirName(3)));

  auto gens = ListGenerations(dir_);
  ASSERT_TRUE(gens.ok());
  ASSERT_EQ(gens.value().size(), 1u);
  EXPECT_EQ(gens.value().front().gen, 3u);
}

TEST_F(WalDeltaCheckpointTest, MissingCurrentFallsBackToNewestGen) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 1, {}, 0, {}).ok());
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 2, {}, 0, {}).ok());

  // Simulated crash between the generation rename and the CURRENT
  // update: the hint file is gone, the generations are durable.
  std::filesystem::remove(DeltaDir(dir_) + "/CURRENT");
  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().gen, 2u);
}

TEST_F(WalDeltaCheckpointTest, StagingLeftoverIsIgnoredAndSweptByNextSave) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 1, {}, 0, {}).ok());

  // Simulated crash mid-staging: a half-written tmp generation.
  const std::string stray = DeltaDir(dir_) + "/gen-" + std::string(18, '0') +
                            "99.tmp";
  std::filesystem::create_directories(stray);
  std::ofstream(stray + "/MANIFEST.tsv") << "garbage\n";

  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().gen, 1u);

  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 2, {}, 0, {}).ok());
  EXPECT_FALSE(std::filesystem::exists(stray));
}

TEST_F(WalDeltaCheckpointTest, TruncatedHeadFileFallsBackToPreviousGen) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 3);
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 1, {}, 0, {}).ok());
  Feed(engine.get(), events_.size() / 3, events_.size());
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 2, {}, 0, {}).ok());

  // Damage a file gen 2 physically owns: size check fails, ResolveHead
  // falls back to gen 1 (still fully loadable).
  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok());
  std::string victim;
  for (const FileRef& f : head.value().files) {
    if (f.src_gen == 2) {
      victim = DeltaDir(dir_) + "/" + GenDirName(2) + "/" + f.rel;
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "gen 2 wrote nothing?";
  std::filesystem::resize_file(victim, 1);

  auto fallback = ResolveHead(dir_);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback.value().gen, 1u);
}

TEST_F(WalDeltaCheckpointTest, HashMismatchFailsMaterializeStrictly) {
  auto engine = NewEngine();
  Feed(engine.get(), 0, events_.size() / 2);
  ASSERT_TRUE(SaveDeltaCheckpoint(dir_, *engine, 1, {}, 0, {}).ok());

  auto head = ResolveHead(dir_);
  ASSERT_TRUE(head.ok());
  // Flip one byte, size preserved: the size pre-check passes, the
  // strict hash verification at materialization must not.
  const FileRef& f = head.value().files.front();
  const std::string path = DeltaDir(dir_) + "/" + GenDirName(f.src_gen) +
                           "/" + f.rel;
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.good());
  char c = 0;
  io.read(&c, 1);
  io.seekp(0);
  c = static_cast<char>(c ^ 0x5a);
  io.write(&c, 1);
  io.close();

  const std::string staging = dir_ + "/restore.tmp";
  const Status st = MaterializeCheckpoint(dir_, head.value(), staging);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(WalDeltaCheckpointTest, ManagerDeltaModeRecoversLikeFullMode) {
  // Two identical streams into two log dirs, one checkpointed full and
  // one delta; both recoveries must yield byte-identical engines.
  const std::string full_dir = dir_ + "/full";
  const std::string delta_dir = dir_ + "/delta";
  const size_t mark = events_.size() / 2;
  const size_t crash = events_.size() * 3 / 4;

  for (int mode = 0; mode < 2; ++mode) {
    const std::string& d = mode == 0 ? full_dir : delta_dir;
    CheckpointOptions copts;
    copts.mode = mode == 0 ? CheckpointMode::kFull : CheckpointMode::kDelta;
    copts.rebase_every = 4;
    CheckpointManager manager(d, copts);
    auto log = ShardedWal::Open(d);
    ASSERT_TRUE(log.ok());
    WalWriter* w = log.value()->stream(0);
    auto engine = NewEngine(1);
    for (const feed::Ad& ad : workload_.ads) {
      feed::FeedEvent ev;
      ev.kind = feed::EventKind::kAdInsert;
      ev.ad = ad;
      ASSERT_TRUE(w->Append(EncodeEventPayload(ev)).ok());
      (void)engine->InsertAd(ad);
    }
    for (size_t i = 0; i < crash; ++i) {
      ASSERT_TRUE(w->Append(EncodeEventPayload(events_[i])).ok());
      engine->OnEvent(events_[i]);
      if (i == mark / 2 || i == mark) {
        ASSERT_TRUE(
            manager.Checkpoint(*engine, log.value().get(), events_[i].time)
                .ok());
      }
    }
  }  // crash both

  CheckpointOptions delta_opts;
  delta_opts.mode = CheckpointMode::kDelta;
  CheckpointManager full_mgr(full_dir);
  CheckpointManager delta_mgr(delta_dir, delta_opts);
  auto full_engine = NewEngine(1);
  auto delta_engine = NewEngine(1);
  auto full_rec = full_mgr.Recover(full_engine.get());
  auto delta_rec = delta_mgr.Recover(delta_engine.get());
  ASSERT_TRUE(full_rec.ok()) << full_rec.status().ToString();
  ASSERT_TRUE(delta_rec.ok()) << delta_rec.status().ToString();
  EXPECT_TRUE(full_rec.value().from_checkpoint);
  EXPECT_FALSE(full_rec.value().from_delta);
  EXPECT_TRUE(delta_rec.value().from_checkpoint);
  EXPECT_TRUE(delta_rec.value().from_delta);
  EXPECT_GE(delta_rec.value().delta_chain_len, 1u);
  EXPECT_EQ(full_rec.value().checkpoint_seqno,
            delta_rec.value().checkpoint_seqno);
  EXPECT_EQ(full_rec.value().next_seqno, delta_rec.value().next_seqno);

  EXPECT_EQ(Serialized(*full_engine), Serialized(*delta_engine));

  // Save-side metric families are populated on the delta manager that
  // streamed (re-create one to checkpoint once and check).
  CheckpointManager fresh(delta_dir, delta_opts);
  auto probe_log = ShardedWal::Open(delta_dir, {},
                                    delta_rec.value().stream_next_seqnos);
  ASSERT_TRUE(probe_log.ok());
  ASSERT_TRUE(
      fresh.Checkpoint(*delta_engine, probe_log.value().get(), 0).ok());
  const obs::MetricsSnapshot snap = fresh.metrics().Snapshot();
  EXPECT_EQ(snap.counters.at("checkpoint.saves"), 1u);
  EXPECT_TRUE(snap.gauges.count("checkpoint.delta_chain_len"));
  EXPECT_TRUE(snap.timers.count("checkpoint.save_ms"));
}

}  // namespace
}  // namespace adrec::wal::delta
