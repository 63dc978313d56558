#include "testkit/differential.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/sharded_engine.h"
#include "core/snapshot.h"
#include "wal/apply.h"
#include "wal/checkpoint.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace adrec::testkit {

namespace {

/// Streams `events` through `on_event`, probing `topk` on every
/// `probe_every`-th tweet, starting at tweet ordinal `*tweet_ordinal`
/// (carried across the snapshot variant's save/restore boundary).
void StreamWithProbes(
    const std::vector<feed::FeedEvent>& events, size_t begin, size_t end,
    size_t probe_every, size_t top_k, size_t* tweet_ordinal,
    const std::function<void(const feed::FeedEvent&)>& on_event,
    const std::function<std::vector<index::ScoredAd>(const feed::Tweet&,
                                                     size_t)>& topk,
    RunOutcome* outcome) {
  for (size_t i = begin; i < end; ++i) {
    const feed::FeedEvent& event = events[i];
    on_event(event);
    if (event.kind != feed::EventKind::kTweet) continue;
    const size_t ordinal = (*tweet_ordinal)++;
    if (probe_every == 0 || ordinal % probe_every != 0) continue;
    ProbeResult probe;
    probe.event_index = i;
    probe.ads = topk(event.tweet, top_k);
    outcome->probes.push_back(std::move(probe));
  }
}

std::string DescribeAds(const std::vector<index::ScoredAd>& ads) {
  std::string out = "[";
  for (const index::ScoredAd& sa : ads) {
    if (out.size() > 1) out += ' ';
    out += StringFormat("%u:%.17g", sa.ad.value, sa.score);
  }
  return out + "]";
}

/// Byte-compares two canonical snapshot trees. Returns "" when they are
/// identical, else a one-line description of the first difference.
std::string CompareSnapshotTrees(const std::string& a_dir,
                                 const std::string& b_dir) {
  namespace fs = std::filesystem;
  const auto relative_files = [](const std::string& root) {
    std::vector<std::string> rel;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file()) {
        rel.push_back(fs::relative(entry.path(), root).string());
      }
    }
    std::sort(rel.begin(), rel.end());
    return rel;
  };
  const std::vector<std::string> a_files = relative_files(a_dir);
  const std::vector<std::string> b_files = relative_files(b_dir);
  if (a_files != b_files) {
    return StringFormat("file sets differ (%zu vs %zu files)",
                        a_files.size(), b_files.size());
  }
  for (const std::string& rel : a_files) {
    const auto slurp = [&](const std::string& root) {
      std::ifstream in(fs::path(root) / rel, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    };
    if (slurp(a_dir) != slurp(b_dir)) return rel + ": bytes differ";
  }
  return "";
}

}  // namespace

DifferentialChecker::DifferentialChecker(
    std::shared_ptr<annotate::KnowledgeBase> kb,
    timeline::TimeSlotScheme slots, DifferentialOptions options)
    : kb_(std::move(kb)), slots_(std::move(slots)),
      options_(std::move(options)) {}

RunOutcome DifferentialChecker::RunSingle(
    const std::vector<feed::Ad>& ads,
    const std::vector<feed::FeedEvent>& events) const {
  core::RecommendationEngine engine(kb_, slots_, options_.engine);
  for (const feed::Ad& ad : ads) (void)engine.InsertAd(ad);
  RunOutcome outcome;
  size_t tweet_ordinal = 0;
  StreamWithProbes(
      events, 0, events.size(), options_.probe_every, options_.top_k,
      &tweet_ordinal,
      [&](const feed::FeedEvent& e) { engine.OnEvent(e); },
      [&](const feed::Tweet& t, size_t k) {
        return engine.TopKAdsForTweet(t, k);
      },
      &outcome);
  (void)engine.RunAnalysis(options_.alpha);
  outcome.tfca = engine.analysis().stats();
  for (const feed::Ad& ad : ads) {
    Result<core::MatchResult> match = engine.RecommendUsers(ad.id);
    outcome.matches.push_back(match.ok() ? std::move(match).value()
                                         : core::MatchResult{});
  }
  const core::EngineStats stats = engine.Stats();
  outcome.tweets = stats.tweets;
  outcome.checkins = stats.checkins;
  outcome.topk_queries = stats.topk_queries;
  outcome.impressions = stats.impressions_served;
  return outcome;
}

RunOutcome DifferentialChecker::RunSharded(
    const std::vector<feed::Ad>& ads,
    const std::vector<feed::FeedEvent>& events) const {
  core::ShardedEngine sharded(kb_, slots_, options_.num_shards,
                              options_.engine);
  for (const feed::Ad& ad : ads) (void)sharded.InsertAd(ad);
  RunOutcome outcome;
  size_t tweet_ordinal = 0;
  StreamWithProbes(
      events, 0, events.size(), options_.probe_every, options_.top_k,
      &tweet_ordinal,
      [&](const feed::FeedEvent& e) { sharded.OnEvent(e); },
      [&](const feed::Tweet& t, size_t k) {
        return sharded.TopKAdsForTweet(t, k);
      },
      &outcome);
  (void)sharded.RunAnalysis(options_.alpha);
  // Shard-local mining: only the window-content sums are globally
  // meaningful (each user lives in exactly one shard).
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const core::TfcaStats& shard = sharded.shard(i).analysis().stats();
    outcome.tfca.users += shard.users;
    outcome.tfca.checkin_incidences += shard.checkin_incidences;
    outcome.tfca.tweet_cells += shard.tweet_cells;
  }
  const core::EngineStats stats = sharded.Stats();
  outcome.tweets = stats.tweets;
  outcome.checkins = stats.checkins;
  outcome.topk_queries = stats.topk_queries;
  outcome.impressions = stats.impressions_served;
  return outcome;
}

RunOutcome DifferentialChecker::RunSnapshotRestore(
    const std::vector<feed::Ad>& ads,
    const std::vector<feed::FeedEvent>& events) const {
  const size_t split = static_cast<size_t>(
      static_cast<double>(events.size()) * options_.snapshot_fraction);
  RunOutcome outcome;
  size_t tweet_ordinal = 0;
  uint64_t pre_tweets = 0, pre_checkins = 0, pre_queries = 0,
           pre_impressions = 0;

  {
    core::RecommendationEngine before(kb_, slots_, options_.engine);
    for (const feed::Ad& ad : ads) (void)before.InsertAd(ad);
    StreamWithProbes(
        events, 0, split, options_.probe_every, options_.top_k,
        &tweet_ordinal,
        [&](const feed::FeedEvent& e) { before.OnEvent(e); },
        [&](const feed::Tweet& t, size_t k) {
          return before.TopKAdsForTweet(t, k);
        },
        &outcome);
    (void)core::SaveEngineSnapshot(before, options_.snapshot_dir);
    const core::EngineStats stats = before.Stats();
    pre_tweets = stats.tweets;
    pre_checkins = stats.checkins;
    pre_queries = stats.topk_queries;
    pre_impressions = stats.impressions_served;
  }  // the pre-restart engine is gone — a real process restart

  core::RecommendationEngine after(kb_, slots_, options_.engine);
  (void)core::LoadEngineSnapshot(options_.snapshot_dir, &after);
  // Recovery procedure: rebuild the analysis window from the event log
  // without touching the restored cumulative state.
  for (size_t i = 0; i < split; ++i) after.ReplayForAnalysis(events[i]);
  StreamWithProbes(
      events, split, events.size(), options_.probe_every, options_.top_k,
      &tweet_ordinal,
      [&](const feed::FeedEvent& e) { after.OnEvent(e); },
      [&](const feed::Tweet& t, size_t k) {
        return after.TopKAdsForTweet(t, k);
      },
      &outcome);
  (void)after.RunAnalysis(options_.alpha);
  outcome.tfca = after.analysis().stats();
  for (const feed::Ad& ad : ads) {
    Result<core::MatchResult> match = after.RecommendUsers(ad.id);
    outcome.matches.push_back(match.ok() ? std::move(match).value()
                                         : core::MatchResult{});
  }
  const core::EngineStats stats = after.Stats();
  outcome.tweets = pre_tweets + stats.tweets;
  outcome.checkins = pre_checkins + stats.checkins;
  outcome.topk_queries = pre_queries + stats.topk_queries;
  outcome.impressions = pre_impressions + stats.impressions_served;
  return outcome;
}

RunOutcome DifferentialChecker::RunWalCrash(
    const std::vector<feed::Ad>& ads,
    const std::vector<feed::FeedEvent>& events,
    wal::RecoveryResult* recovery) const {
  ADREC_CHECK(!options_.wal_dir.empty());
  const size_t crash = static_cast<size_t>(
      static_cast<double>(events.size()) * options_.crash_fraction);
  const bool with_checkpoint = options_.wal_checkpoint_fraction >= 0.0;
  const size_t checkpoint_at =
      with_checkpoint
          ? std::min(static_cast<size_t>(
                         static_cast<double>(events.size()) *
                         options_.wal_checkpoint_fraction),
                     crash)
          : crash;  // only used as a stream split point

  RunOutcome outcome;
  size_t tweet_ordinal = 0;
  // Counter bookkeeping across the crash: tweets/checkins up to the
  // checkpoint live in the snapshot era (the recovered engine re-counts
  // everything after the mark during live replay), while topk/impression
  // counters accrue only where probes actually ran — the crashing engine
  // up to the crash, the recovered engine after it.
  uint64_t ckpt_tweets = 0, ckpt_checkins = 0;
  uint64_t pre_queries = 0, pre_impressions = 0;
  // Ingest counters frozen at each checkpoint mark, keyed by the mark's
  // synced seqno (per-stream max): recovery may land on an OLDER mark
  // than the last one taken (delta-chain fallback after damage), and the
  // counter split below must credit the mark actually recovered.
  struct CheckpointMark {
    uint64_t seqno;
    uint64_t tweets;
    uint64_t checkins;
  };
  std::vector<CheckpointMark> ckpt_marks;
  const size_t num_streams = options_.wal_shards;
  // Per-stream seqno the first unacked record would get, plus which
  // stream owns the event that crashed mid-frame.
  std::vector<uint64_t> crash_seqnos(num_streams, 0);
  size_t torn_stream = 0;
  wal::CheckpointManager checkpointer(options_.wal_dir,
                                      options_.wal_checkpoint_options);

  {
    core::ShardedEngine before(kb_, slots_, options_.wal_shards,
                               options_.engine);
    wal::WalOptions wal_options;
    // Durability policy is irrelevant to this differential (the "disk"
    // never loses synced data in-process); kNone keeps iterations fast.
    wal_options.sync = wal::SyncPolicy::kNone;
    wal_options.segment_bytes = options_.wal_segment_bytes;
    wal_options.shards = num_streams;
    auto writer = wal::ShardedWal::Open(options_.wal_dir, wal_options);
    ADREC_CHECK(writer.ok());
    wal::ShardedWal* w = writer.value().get();

    // Feed events go to the owner shard's stream; ad ops are broadcast
    // to every stream so each stream alone totally orders everything
    // that touches its shard (wal/sharded_wal.h). One stream collapses
    // to the classic layout.
    const auto stream_of = [&](const feed::FeedEvent& e) -> size_t {
      if (num_streams <= 1) return 0;
      switch (e.kind) {
        case feed::EventKind::kTweet:
          return before.ShardOf(e.tweet.user);
        case feed::EventKind::kCheckIn:
          return before.ShardOf(e.check_in.user);
        default:
          return 0;
      }
    };
    const auto append = [&](const feed::FeedEvent& e) {
      const std::string payload = wal::EncodeEventPayload(e);
      if (e.kind == feed::EventKind::kAdInsert ||
          e.kind == feed::EventKind::kAdDelete) {
        for (size_t s = 0; s < num_streams; ++s) {
          ADREC_CHECK(w->stream(s)->Append(payload).ok());
        }
      } else {
        ADREC_CHECK(w->stream(stream_of(e))->Append(payload).ok());
      }
    };

    // Upfront inventory is logged like any ingest, so a checkpoint-less
    // recovery rebuilds it from the log alone.
    for (const feed::Ad& ad : ads) {
      feed::FeedEvent ev;
      ev.kind = feed::EventKind::kAdInsert;
      ev.ad = ad;
      append(ev);
      (void)before.InsertAd(ad);
    }

    const auto on_event = [&](const feed::FeedEvent& e) {
      append(e);
      before.OnEvent(e);
    };
    const auto topk = [&](const feed::Tweet& t, size_t k) {
      return before.TopKAdsForTweet(t, k);
    };
    if (with_checkpoint) {
      // Evenly spaced checkpoints through [0, checkpoint_at]; more than
      // one builds a delta chain in kDelta mode. The recovery mark is
      // the LAST checkpoint, so its stats split the counters.
      const size_t ckpts = std::max<size_t>(1, options_.wal_checkpoint_count);
      size_t streamed = 0;
      for (size_t c = 1; c <= ckpts; ++c) {
        const size_t upto = checkpoint_at * c / ckpts;
        StreamWithProbes(events, streamed, upto, options_.probe_every,
                         options_.top_k, &tweet_ordinal, on_event, topk,
                         &outcome);
        streamed = upto;
        ADREC_CHECK(checkpointer.Checkpoint(before, w, 0).ok());
        uint64_t mark_seqno = 0;
        for (size_t s = 0; s < num_streams; ++s) {
          mark_seqno = std::max(mark_seqno, w->stream(s)->synced_seqno());
        }
        const core::EngineStats at_mark = before.Stats();
        ckpt_marks.push_back({mark_seqno, at_mark.tweets, at_mark.checkins});
      }
    } else {
      StreamWithProbes(events, 0, checkpoint_at, options_.probe_every,
                       options_.top_k, &tweet_ordinal, on_event, topk,
                       &outcome);
    }
    StreamWithProbes(events, checkpoint_at, crash, options_.probe_every,
                     options_.top_k, &tweet_ordinal, on_event, topk,
                     &outcome);

    const core::EngineStats at_crash = before.Stats();
    pre_queries = at_crash.topk_queries;
    pre_impressions = at_crash.impressions_served;
    for (size_t s = 0; s < num_streams; ++s) {
      crash_seqnos[s] = w->stream(s)->next_seqno();
    }
    if (crash < events.size()) torn_stream = stream_of(events[crash]);
  }  // crash: the engine and the writer die with no goodbye

  if (options_.crash_torn_tail && crash < events.size()) {
    // The first unacknowledged event made it halfway into a frame before
    // the lights went out — in the stream that owns it.
    const std::string stream_dir =
        wal::StreamDir(options_.wal_dir, torn_stream, num_streams);
    const std::string frame = wal::EncodeFrame(
        crash_seqnos[torn_stream], wal::EncodeEventPayload(events[crash]));
    Rng rng(options_.crash_seed);
    const size_t keep =
        1 + static_cast<size_t>(rng.NextBounded(frame.size() - 1));
    auto report = wal::ScanLog(stream_dir, {});
    ADREC_CHECK(report.ok() && !report.value().segments.empty());
    std::ofstream torn(report.value().segments.back().path,
                       std::ios::binary | std::ios::app);
    ADREC_CHECK(static_cast<bool>(torn));
    torn.write(frame.data(), static_cast<std::streamsize>(keep));
    torn.flush();
    ADREC_CHECK(static_cast<bool>(torn));
  }

  if (options_.post_crash_hook) options_.post_crash_hook(options_.wal_dir);

  core::ShardedEngine after(kb_, slots_, options_.wal_shards,
                            options_.engine);
  auto recovered = checkpointer.Recover(&after, num_streams);
  if (!recovered.ok()) {
    ADREC_LOG(kError) << "RunWalCrash: recovery failed: "
                      << recovered.status().ToString();
    ADREC_CHECK(recovered.ok());
  }
  if (recovery != nullptr) *recovery = recovered.value();
  if (recovered.value().from_checkpoint) {
    // Credit the counters frozen at the mark recovery actually used —
    // live replay re-counts everything past it. Marks are ascending, so
    // the last one at or below the recovered seqno wins; a log-only
    // fallback (from_checkpoint false) keeps the split at zero.
    for (const CheckpointMark& m : ckpt_marks) {
      if (m.seqno <= recovered.value().checkpoint_seqno) {
        ckpt_tweets = m.tweets;
        ckpt_checkins = m.checkins;
      }
    }
  }

  StreamWithProbes(
      events, crash, events.size(), options_.probe_every, options_.top_k,
      &tweet_ordinal,
      [&](const feed::FeedEvent& e) { after.OnEvent(e); },
      [&](const feed::Tweet& t, size_t k) {
        return after.TopKAdsForTweet(t, k);
      },
      &outcome);

  (void)after.RunAnalysis(options_.alpha);
  if (options_.wal_shards == 1) {
    outcome.tfca = after.shard(0).analysis().stats();
    for (const feed::Ad& ad : ads) {
      Result<core::MatchResult> match = after.shard(0).RecommendUsers(ad.id);
      outcome.matches.push_back(match.ok() ? std::move(match).value()
                                           : core::MatchResult{});
    }
  } else {
    for (size_t i = 0; i < after.num_shards(); ++i) {
      const core::TfcaStats& shard = after.shard(i).analysis().stats();
      outcome.tfca.users += shard.users;
      outcome.tfca.checkin_incidences += shard.checkin_incidences;
      outcome.tfca.tweet_cells += shard.tweet_cells;
    }
  }
  const core::EngineStats stats = after.Stats();
  outcome.tweets = ckpt_tweets + stats.tweets;
  outcome.checkins = ckpt_checkins + stats.checkins;
  outcome.topk_queries = pre_queries + stats.topk_queries;
  outcome.impressions = pre_impressions + stats.impressions_served;
  return outcome;
}

ReplicaPromotionReport DifferentialChecker::RunReplicaPromotion(
    const std::vector<feed::Ad>& ads,
    const std::vector<feed::FeedEvent>& events) const {
  ADREC_CHECK(!options_.wal_dir.empty());
  ADREC_CHECK(!options_.replica_wal_dir.empty());
  ADREC_CHECK(!options_.replica_snapshot_dir.empty());
  ReplicaPromotionReport report;
  const size_t crash = static_cast<size_t>(
      static_cast<double>(events.size()) * options_.crash_fraction);
  const size_t num_streams = options_.wal_shards;
  std::vector<uint64_t> acked(num_streams, 0);
  std::vector<uint64_t> crash_seqnos(num_streams, 0);
  size_t torn_stream = 0;

  // Stream routing mirrors the daemon: feed events to the owner shard's
  // stream, ad ops broadcast to every stream. One stream collapses to
  // the classic single-cursor layout.
  const auto stream_of = [&](const core::ShardedEngine& engine,
                             const feed::FeedEvent& e) -> size_t {
    if (num_streams <= 1) return 0;
    switch (e.kind) {
      case feed::EventKind::kTweet:
        return engine.ShardOf(e.tweet.user);
      case feed::EventKind::kCheckIn:
        return engine.ShardOf(e.check_in.user);
      default:
        return 0;
    }
  };
  const auto append_routed = [&](wal::ShardedWal* w,
                                 const core::ShardedEngine& engine,
                                 const feed::FeedEvent& e) {
    const std::string payload = wal::EncodeEventPayload(e);
    if (e.kind == feed::EventKind::kAdInsert ||
        e.kind == feed::EventKind::kAdDelete) {
      for (size_t s = 0; s < num_streams; ++s) {
        ADREC_CHECK(w->stream(s)->Append(payload).ok());
      }
    } else {
      ADREC_CHECK(w->stream(stream_of(engine, e))->Append(payload).ok());
    }
  };

  // --- Leader: execute and log the trace prefix, then die unwarned. ---
  {
    core::ShardedEngine leader(kb_, slots_, num_streams, options_.engine);
    wal::WalOptions wal_options;
    wal_options.sync = wal::SyncPolicy::kNone;
    wal_options.segment_bytes = options_.wal_segment_bytes;
    wal_options.shards = num_streams;
    auto writer = wal::ShardedWal::Open(options_.wal_dir, wal_options);
    ADREC_CHECK(writer.ok());
    wal::ShardedWal* w = writer.value().get();
    for (const feed::Ad& ad : ads) {
      feed::FeedEvent ev;
      ev.kind = feed::EventKind::kAdInsert;
      ev.ad = ad;
      append_routed(w, leader, ev);
      (void)leader.InsertAd(ad);
    }
    for (size_t i = 0; i < crash; ++i) {
      append_routed(w, leader, events[i]);
      leader.OnEvent(events[i]);
    }
    for (size_t s = 0; s < num_streams; ++s) {
      crash_seqnos[s] = w->stream(s)->next_seqno();
      acked[s] = crash_seqnos[s] - 1;
      report.acknowledged += acked[s];
    }
    if (crash < events.size()) torn_stream = stream_of(leader, events[crash]);
  }  // SIGKILL: engine and writer are gone

  if (options_.crash_torn_tail && crash < events.size()) {
    // The first unacknowledged record made it halfway into a frame in
    // the stream that owns it. A replication cursor must never ship it:
    // ReadFrames stops at the flushed prefix and treats the torn tail
    // as end-of-log.
    const std::string frame = wal::EncodeFrame(
        crash_seqnos[torn_stream], wal::EncodeEventPayload(events[crash]));
    Rng rng(options_.crash_seed);
    const size_t keep =
        1 + static_cast<size_t>(rng.NextBounded(frame.size() - 1));
    auto scan = wal::ScanLog(
        wal::StreamDir(options_.wal_dir, torn_stream, num_streams), {});
    ADREC_CHECK(scan.ok() && !scan.value().segments.empty());
    std::ofstream torn(scan.value().segments.back().path,
                       std::ios::binary | std::ios::app);
    ADREC_CHECK(static_cast<bool>(torn));
    torn.write(frame.data(), static_cast<std::streamsize>(keep));
    torn.flush();
    ADREC_CHECK(static_cast<bool>(torn));
  }

  // --- Follower: one cursor per stream (`repl <s> <streams> <cursor>`),
  // log-then-apply into the follower's own per-shard log, alongside the
  // reference engine fed the identical decoded records. Shard states
  // are disjoint, so draining streams sequentially is equivalent to any
  // concurrent interleaving. ---
  core::ShardedEngine follower(kb_, slots_, num_streams, options_.engine);
  core::ShardedEngine reference(kb_, slots_, num_streams, options_.engine);
  wal::WalOptions follower_wal_options;
  follower_wal_options.sync = wal::SyncPolicy::kNone;
  follower_wal_options.segment_bytes = options_.wal_segment_bytes;
  follower_wal_options.shards = num_streams;
  auto opened =
      wal::ShardedWal::Open(options_.replica_wal_dir, follower_wal_options);
  ADREC_CHECK(opened.ok());
  wal::ShardedWal* fw = opened.value().get();

  uint64_t replicate_total = 0;
  for (size_t s = 0; s < num_streams; ++s) {
    const std::string leader_stream =
        wal::StreamDir(options_.wal_dir, s, num_streams);
    const uint64_t replicate_to = static_cast<uint64_t>(
        static_cast<double>(acked[s]) * options_.replica_catchup_fraction);
    replicate_total += replicate_to;
    wal::CursorHint hint;
    uint64_t next = 1;
    while (next <= replicate_to) {
      auto batch = wal::ReadFrames(leader_stream, next, replicate_to,
                                   options_.replica_batch_bytes, &hint);
      ADREC_CHECK(batch.ok());
      const wal::CursorBatch& cb = batch.value();
      std::vector<feed::FeedEvent> wave;
      size_t pos = 0;
      while (pos < cb.frames.size()) {
        const size_t nl = cb.frames.find('\n', pos);
        ADREC_CHECK(nl != std::string::npos);
        auto record = wal::DecodeFrame(
            std::string_view(cb.frames).substr(pos, nl - pos));
        ADREC_CHECK(record.ok());
        auto event = wal::DecodeEventPayload(record.value().payload);
        ADREC_CHECK(event.ok());
        // Durability before visibility, exactly as replica::Follower:
        // the record reaches the follower's own log before the engine.
        ADREC_CHECK(fw->stream(s)->AppendDeferred(record.value().payload)
                        .ok());
        wave.push_back(std::move(event).value());
        pos = nl + 1;
      }
      ADREC_CHECK(fw->stream(s)->Commit().ok());
      // The follower's apply rule (wal/apply.h): stream s feeds shard s.
      for (const feed::FeedEvent& event : wave) {
        ADREC_CHECK(
            wal::ApplyLoggedEvent(&follower, s, num_streams, event).ok());
        ADREC_CHECK(
            wal::ApplyLoggedEvent(&reference, s, num_streams, event).ok());
      }
      report.replicated += wave.size();
      ADREC_CHECK(cb.next_seqno > next);  // forward progress
      next = cb.next_seqno;
      if (cb.at_end) break;
    }
  }
  ADREC_CHECK(report.replicated == replicate_total);

  // --- Promote: seal every stream of the follower's log (what
  // ExecutePromote does), then byte-compare the canonical snapshots of
  // every shard. ---
  ADREC_CHECK(fw->RotateAll().ok());
  ADREC_CHECK(fw->SyncAll().ok());
  namespace fs = std::filesystem;
  const fs::path snap_root(options_.replica_snapshot_dir);
  const auto compare_at = [&](const char* mark) {
    const fs::path a = snap_root / (std::string("follower_") + mark);
    const fs::path b = snap_root / (std::string("reference_") + mark);
    for (size_t i = 0; i < num_streams; ++i) {
      const std::string sub = StringFormat("shard%zu", i);
      ADREC_CHECK(
          core::SaveEngineSnapshot(follower.shard(i), (a / sub).string())
              .ok());
      ADREC_CHECK(
          core::SaveEngineSnapshot(reference.shard(i), (b / sub).string())
              .ok());
    }
    std::string diff = CompareSnapshotTrees(a.string(), b.string());
    if (!diff.empty()) diff = std::string(mark) + ": " + diff;
    return diff;
  };
  report.detail = compare_at("promoted");
  if (!report.detail.empty()) return report;

  // --- Post-failover: clients re-submit the trace tail to the promoted
  // follower, which now logs and applies as a leader. ---
  for (size_t i = crash; i < events.size(); ++i) {
    append_routed(fw, follower, events[i]);
    // A promoted leader ingests through the engine's own routing.
    ADREC_CHECK(wal::ApplyLoggedEvent(&follower, 0, 1, events[i]).ok());
    ADREC_CHECK(wal::ApplyLoggedEvent(&reference, 0, 1, events[i]).ok());
    ++report.post_promote;
  }
  report.detail = compare_at("post");
  report.identical = report.detail.empty();
  return report;
}

Divergence DifferentialChecker::CompareOutcomes(const RunOutcome& a,
                                                const RunOutcome& b,
                                                const CompareOptions& compare,
                                                std::string_view a_name,
                                                std::string_view b_name) {
  Divergence d;
  const auto diverge = [&](size_t event_index, std::string detail) {
    d.diverged = true;
    d.event_index = event_index;
    d.detail = std::string(a_name) + " vs " + std::string(b_name) + ": " +
               std::move(detail);
  };

  if (compare.probes) {
    const size_t n = std::min(a.probes.size(), b.probes.size());
    for (size_t i = 0; i < n; ++i) {
      const ProbeResult& pa = a.probes[i];
      const ProbeResult& pb = b.probes[i];
      if (pa.event_index != pb.event_index) {
        diverge(std::min(pa.event_index, pb.event_index),
                StringFormat("probe %zu at different events (%zu vs %zu)", i,
                             pa.event_index, pb.event_index));
        return d;
      }
      if (pa.ads != pb.ads) {
        diverge(pa.event_index,
                StringFormat("top-k mismatch at probe %zu: ", i) +
                    DescribeAds(pa.ads) + " vs " + DescribeAds(pb.ads));
        return d;
      }
    }
    if (a.probes.size() != b.probes.size()) {
      const size_t at = a.probes.size() < b.probes.size()
                            ? b.probes[a.probes.size()].event_index
                            : a.probes[b.probes.size()].event_index;
      diverge(at, StringFormat("probe count mismatch (%zu vs %zu)",
                               a.probes.size(), b.probes.size()));
      return d;
    }
  }

  if (compare.counters) {
    if (a.tweets != b.tweets || a.checkins != b.checkins ||
        a.topk_queries != b.topk_queries ||
        a.impressions != b.impressions) {
      diverge(SIZE_MAX,
              StringFormat("event counters mismatch: "
                           "tweets %llu/%llu checkins %llu/%llu "
                           "queries %llu/%llu impressions %llu/%llu",
                           static_cast<unsigned long long>(a.tweets),
                           static_cast<unsigned long long>(b.tweets),
                           static_cast<unsigned long long>(a.checkins),
                           static_cast<unsigned long long>(b.checkins),
                           static_cast<unsigned long long>(a.topk_queries),
                           static_cast<unsigned long long>(b.topk_queries),
                           static_cast<unsigned long long>(a.impressions),
                           static_cast<unsigned long long>(b.impressions)));
      return d;
    }
  }

  if (compare.tfca_full && !(a.tfca == b.tfca)) {
    diverge(SIZE_MAX,
            StringFormat(
                "TfcaStats mismatch: users %zu/%zu locations %zu/%zu "
                "incidences %zu/%zu cells %zu/%zu "
                "loc-concepts %zu/%zu topic-concepts %zu/%zu",
                a.tfca.users, b.tfca.users, a.tfca.locations,
                b.tfca.locations, a.tfca.checkin_incidences,
                b.tfca.checkin_incidences, a.tfca.tweet_cells,
                b.tfca.tweet_cells, a.tfca.location_triconcepts,
                b.tfca.location_triconcepts, a.tfca.topic_triconcepts,
                b.tfca.topic_triconcepts));
    return d;
  }

  if (compare.tfca_sums &&
      (a.tfca.users != b.tfca.users ||
       a.tfca.checkin_incidences != b.tfca.checkin_incidences ||
       a.tfca.tweet_cells != b.tfca.tweet_cells)) {
    diverge(SIZE_MAX,
            StringFormat("window-content sums mismatch: users %zu/%zu "
                         "incidences %zu/%zu cells %zu/%zu",
                         a.tfca.users, b.tfca.users,
                         a.tfca.checkin_incidences,
                         b.tfca.checkin_incidences, a.tfca.tweet_cells,
                         b.tfca.tweet_cells));
    return d;
  }

  if (compare.matches) {
    if (a.matches.size() != b.matches.size()) {
      diverge(SIZE_MAX, StringFormat("match count mismatch (%zu vs %zu)",
                                     a.matches.size(), b.matches.size()));
      return d;
    }
    for (size_t i = 0; i < a.matches.size(); ++i) {
      if (a.matches[i].users != b.matches[i].users) {
        diverge(SIZE_MAX,
                StringFormat("RecommendUsers mismatch for ad #%zu "
                             "(%zu vs %zu matched users)",
                             i, a.matches[i].users.size(),
                             b.matches[i].users.size()));
        return d;
      }
    }
  }
  return d;
}

Divergence DifferentialChecker::Check(
    const std::vector<feed::Ad>& ads,
    const std::vector<feed::FeedEvent>& events) const {
  const RunOutcome single = RunSingle(ads, events);

  if (options_.run_sharded) {
    const RunOutcome sharded = RunSharded(ads, events);
    CompareOptions compare;
    compare.tfca_full = false;
    compare.tfca_sums = true;
    compare.matches = false;
    Divergence d =
        CompareOutcomes(single, sharded, compare, "single", "sharded");
    if (d) return d;
  }

  if (options_.run_snapshot) {
    const RunOutcome restored = RunSnapshotRestore(ads, events);
    Divergence d = CompareOutcomes(single, restored, CompareOptions{},
                                   "single", "snapshot-restored");
    if (d) return d;
  }
  return {};
}

}  // namespace adrec::testkit
