// E25 — "Bounded-pause incremental checkpoints": what a delta-chain save
// pauses the daemon for, compared to a classic full snapshot, and what
// delta-chain recovery costs over a compacted log.
//
// Three measurements on one synthetic case-study workload, streamed into
// an 8-shard engine behind a WAL (steady state: a large accumulated
// state, a small churn between checkpoints — the regime delta
// checkpoints exist for; the churn is confined to one user, hence one
// shard, so the other shards carry over by reference):
//
//   1. Save pause, full vs delta, at increasing engine sizes: the wall
//      time of CheckpointManager::Checkpoint after a fixed churn batch.
//      The delta save serializes only dirty shards (mutation-epoch
//      hints) and persists only content-hash-changed files.
//      Self-gate: at the largest benched size, the median delta pause
//      must be <= 0.25x the median full pause.
//   2. Recovery wall time: a log checkpointed three times in delta mode
//      (rebase + two chained deltas) with its sealed tail offline-
//      compacted, recovered into a fresh engine — against the same
//      stream checkpointed once in full mode at the same final mark.
//      Self-gate: delta-chain recovery <= 1.25x full recovery.
//   3. Compaction accounting for the recovery log: segments/records/
//      bytes before and after CompactLogDir, reported as counters.
//
// Not a google-benchmark binary: the unit of interest is a whole save /
// recovery cycle, so this is a plain main emitting one
// BENCH_METRICS_JSON line. Exits non-zero when a self-gate fails.
//
//   bench_checkpoint [events] [churn-events]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "obs/stats_export.h"
#include "wal/checkpoint.h"
#include "wal/delta/compactor.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace {

constexpr size_t kShards = 8;
// 10 rounds per measurement: bench_diff skips timers with fewer than 10
// samples, and the save/recovery timers are exactly what the gate is for.
constexpr int kRounds = 10;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "adrec_bench_ckpt" / name)
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

double Median(std::vector<double> v) {
  ADREC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

adrec::obs::TimerStat Stats(std::vector<double> v) {
  adrec::obs::TimerStat s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.count = v.size();
  s.min = v.front();
  s.max = v.back();
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  s.p50 = v[v.size() / 2];
  s.p95 = v[std::min(v.size() - 1, v.size() * 95 / 100)];
  s.p99 = v[std::min(v.size() - 1, v.size() * 99 / 100)];
  return s;
}

/// Feeds one event into engine + log.
void Feed(adrec::core::ShardedEngine* engine, adrec::wal::WalWriter* w,
          const adrec::feed::FeedEvent& ev) {
  ADREC_CHECK(w->Append(adrec::wal::EncodeEventPayload(ev)).ok());
  engine->OnEvent(ev);
}

/// A churn batch confined to one user (one shard): the steady-state
/// trickle between checkpoints. Time advances past `*clock` so the
/// stream stays monotonic.
std::vector<adrec::feed::FeedEvent> ChurnBatch(
    const adrec::feed::Workload& workload, size_t count,
    adrec::Timestamp* clock) {
  adrec::feed::FeedEvent churn_template;
  churn_template.kind = adrec::feed::EventKind::kTweet;
  churn_template.tweet = workload.tweets.front();
  std::vector<adrec::feed::FeedEvent> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    adrec::feed::FeedEvent ev = churn_template;
    ev.time = ++*clock;
    ev.tweet.time = ev.time;
    batch.push_back(ev);
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t max_events =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 20000;
  const size_t churn_events =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 400;

  adrec::feed::WorkloadOptions wopts = adrec::feed::CaseStudyOptions();
  wopts.days = 14;
  const adrec::feed::Workload workload = adrec::feed::GenerateWorkload(wopts);
  std::vector<adrec::feed::FeedEvent> events = workload.MergedEvents();
  if (events.size() > max_events) events.resize(max_events);
  ADREC_CHECK(!events.empty());

  adrec::obs::StatsReport report;
  report.counters["bench.events"] = events.size();
  report.counters["bench.churn_events"] = churn_events;
  report.counters["bench.shards"] = kShards;
  bool gates_ok = true;

  // --- 1. Save pause, full vs delta, at increasing engine sizes. ---
  double full_med_largest = 0.0;
  double delta_med_largest = 0.0;
  for (const size_t n :
       {events.size() / 4, events.size() / 2, events.size()}) {
    if (n == 0) continue;
    const std::string dir = FreshDir(adrec::StringFormat("pause_%zu", n));
    adrec::wal::WalOptions lopts;
    lopts.sync = adrec::wal::SyncPolicy::kNone;
    auto log = adrec::wal::ShardedWal::Open(dir, lopts);
    ADREC_CHECK(log.ok());
    adrec::wal::ShardedWal* wal = log.value().get();
    adrec::wal::WalWriter* w = wal->stream(0);
    adrec::core::ShardedEngine engine(workload.kb, workload.slots, kShards);
    for (const auto& ad : workload.ads) {
      adrec::feed::FeedEvent put;
      put.kind = adrec::feed::EventKind::kAdInsert;
      put.ad = ad;
      Feed(&engine, w, put);
    }
    adrec::Timestamp clock = 0;
    for (size_t i = 0; i < n; ++i) {
      Feed(&engine, w, events[i]);
      clock = std::max(clock, events[i].time);
    }

    adrec::wal::CheckpointOptions full_opts;  // mode = kFull
    adrec::wal::CheckpointManager full_mgr(dir, full_opts);
    adrec::wal::CheckpointOptions delta_opts;
    delta_opts.mode = adrec::wal::CheckpointMode::kDelta;
    delta_opts.rebase_every = 1000;  // the bench times steady-state deltas
    adrec::wal::CheckpointManager delta_mgr(dir, delta_opts);

    // Warm both paths: the full save pages everything in, the first
    // delta save is the (full-cost) rebase generation.
    ADREC_CHECK(full_mgr.Checkpoint(engine, wal, clock).ok());
    ADREC_CHECK(delta_mgr.Checkpoint(engine, wal, clock).ok());

    std::vector<double> full_us, delta_us;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& ev : ChurnBatch(workload, churn_events, &clock)) {
        Feed(&engine, w, ev);
      }
      double start = NowUs();
      ADREC_CHECK(full_mgr.Checkpoint(engine, wal, clock).ok());
      full_us.push_back(NowUs() - start);

      for (const auto& ev : ChurnBatch(workload, churn_events, &clock)) {
        Feed(&engine, w, ev);
      }
      start = NowUs();
      ADREC_CHECK(delta_mgr.Checkpoint(engine, wal, clock).ok());
      delta_us.push_back(NowUs() - start);
    }
    const double full_med = Median(full_us);
    const double delta_med = Median(delta_us);
    report.timers[adrec::StringFormat("bench.ckpt_full_save_us.%zu", n)] =
        Stats(full_us);
    report.timers[adrec::StringFormat("bench.ckpt_delta_save_us.%zu", n)] =
        Stats(delta_us);
    std::printf("bench_checkpoint: save pause n=%-7zu full=%9.0fus "
                "delta=%9.0fus ratio=%.3f\n",
                n, full_med, delta_med,
                full_med > 0.0 ? delta_med / full_med : 0.0);
    if (n == events.size()) {
      full_med_largest = full_med;
      delta_med_largest = delta_med;
    }
    std::filesystem::remove_all(dir);
  }
  const double pause_ratio = full_med_largest > 0.0
                                 ? delta_med_largest / full_med_largest
                                 : 1.0;
  std::printf("bench_checkpoint: delta pause / full pause at largest size "
              "= %.3f (bar <=0.25)\n",
              pause_ratio);
  report.counters["bench.pause_ratio_x1000"] =
      static_cast<uint64_t>(pause_ratio * 1000.0);
  if (pause_ratio > 0.25) {
    std::printf("bench_checkpoint: GATE FAILED: delta save pause %.0fus "
                "exceeds 0.25x of full save pause %.0fus\n",
                delta_med_largest, full_med_largest);
    gates_ok = false;
  }

  // --- 2. Recovery: delta chain + compacted tail vs one full save. ---
  // The same stream twice (with ad churn mixed in so compaction has
  // superseded records to drop): three delta checkpoints building a
  // rebase + two chained deltas, tail compacted offline — against one
  // full checkpoint at the same final mark, tail left as written.
  std::vector<adrec::feed::FeedEvent> rec_events;
  rec_events.reserve(events.size() + events.size() / 16);
  for (size_t i = 0; i < events.size(); ++i) {
    rec_events.push_back(events[i]);
    if (i % 16 != 0) continue;
    // Interleaved (not appended) so the superseded puts land in sealed
    // segments compaction may rewrite, not in the excluded newest one.
    adrec::feed::FeedEvent put;
    put.kind = adrec::feed::EventKind::kAdInsert;
    put.ad = workload.ads.front();
    put.ad.id = adrec::AdId(90000 + static_cast<uint32_t>(i % 4));
    put.ad.bid = 1.0 + static_cast<double>(i);
    put.time = events[i].time;
    rec_events.push_back(put);
  }
  const size_t marks[] = {rec_events.size() / 4, rec_events.size() / 2,
                          rec_events.size() * 3 / 4};
  const std::string delta_dir = FreshDir("recover_delta");
  const std::string full_dir = FreshDir("recover_full");
  for (const bool delta_mode : {true, false}) {
    const std::string& dir = delta_mode ? delta_dir : full_dir;
    adrec::wal::WalOptions lopts;
    lopts.sync = adrec::wal::SyncPolicy::kNone;
    lopts.segment_bytes = 256 * 1024;  // several sealed segments
    auto log = adrec::wal::ShardedWal::Open(dir, lopts);
    ADREC_CHECK(log.ok());
    adrec::wal::ShardedWal* wal = log.value().get();
    adrec::wal::WalWriter* w = wal->stream(0);
    adrec::core::ShardedEngine engine(workload.kb, workload.slots, kShards);
    adrec::wal::CheckpointOptions copts;
    copts.mode = delta_mode ? adrec::wal::CheckpointMode::kDelta
                            : adrec::wal::CheckpointMode::kFull;
    copts.rebase_every = 8;  // mark 1 rebases, marks 2 and 3 chain
    adrec::wal::CheckpointManager manager(dir, copts);
    for (const auto& ad : workload.ads) {
      adrec::feed::FeedEvent put;
      put.kind = adrec::feed::EventKind::kAdInsert;
      put.ad = ad;
      Feed(&engine, w, put);
    }
    for (size_t i = 0; i < rec_events.size(); ++i) {
      Feed(&engine, w, rec_events[i]);
      if (delta_mode && (i == marks[0] || i == marks[1] || i == marks[2])) {
        ADREC_CHECK(manager.Checkpoint(engine, wal, rec_events[i].time).ok());
      }
      if (!delta_mode && i == marks[2]) {
        ADREC_CHECK(manager.Checkpoint(engine, wal, rec_events[i].time).ok());
      }
    }
  }  // both daemons die

  auto compact = adrec::wal::delta::CompactLogDir(delta_dir, {});
  ADREC_CHECK(compact.ok());
  report.counters["bench.compact_segments_in"] = compact.value().segments_in;
  report.counters["bench.compact_segments_out"] =
      compact.value().segments_out;
  report.counters["bench.compact_records_dropped"] =
      compact.value().records_dropped;
  report.counters["bench.compact_bytes_reclaimed"] =
      compact.value().bytes_in - compact.value().bytes_out;
  std::printf("bench_checkpoint: compaction %zu -> %zu segments, dropped "
              "%llu records, reclaimed %llu bytes\n",
              compact.value().segments_in, compact.value().segments_out,
              static_cast<unsigned long long>(
                  compact.value().records_dropped),
              static_cast<unsigned long long>(compact.value().bytes_in -
                                              compact.value().bytes_out));

  std::vector<double> delta_rec_us, full_rec_us;
  size_t delta_chain_len = 0;
  for (int round = 0; round < kRounds; ++round) {
    {
      adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                        kShards);
      adrec::wal::CheckpointOptions copts;
      copts.mode = adrec::wal::CheckpointMode::kDelta;
      adrec::wal::CheckpointManager manager(delta_dir, copts);
      const double start = NowUs();
      auto r = manager.Recover(&engine);
      delta_rec_us.push_back(NowUs() - start);
      ADREC_CHECK(r.ok());
      ADREC_CHECK(r.value().from_delta);
      delta_chain_len = r.value().delta_chain_len;
    }
    {
      adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                        kShards);
      adrec::wal::CheckpointManager manager(full_dir);
      const double start = NowUs();
      auto r = manager.Recover(&engine);
      full_rec_us.push_back(NowUs() - start);
      ADREC_CHECK(r.ok());
      ADREC_CHECK(r.value().from_checkpoint && !r.value().from_delta);
    }
  }
  const double delta_rec_med = Median(delta_rec_us);
  const double full_rec_med = Median(full_rec_us);
  report.timers["bench.recover_delta_chain_us"] = Stats(delta_rec_us);
  report.timers["bench.recover_full_us"] = Stats(full_rec_us);
  report.counters["bench.recover_delta_chain_len"] = delta_chain_len;
  const double rec_ratio =
      full_rec_med > 0.0 ? delta_rec_med / full_rec_med : 1.0;
  std::printf("bench_checkpoint: recovery full=%9.0fus delta-chain(len=%zu)+"
              "compacted=%9.0fus ratio=%.3f (bar <=1.25)\n",
              full_rec_med, delta_chain_len, delta_rec_med, rec_ratio);
  report.counters["bench.recovery_ratio_x1000"] =
      static_cast<uint64_t>(rec_ratio * 1000.0);
  if (rec_ratio > 1.25) {
    std::printf("bench_checkpoint: GATE FAILED: delta-chain recovery "
                "%.0fus exceeds 1.25x of full recovery %.0fus\n",
                delta_rec_med, full_rec_med);
    gates_ok = false;
  }
  std::filesystem::remove_all(delta_dir);
  std::filesystem::remove_all(full_dir);

  std::printf("BENCH_METRICS_JSON %s\n",
              adrec::obs::ExportJson(report).c_str());
  return gates_ok ? 0 : 1;
}
