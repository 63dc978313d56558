// E19 — "Durability cost of the write-ahead log": what each sync policy
// charges the ingest path, and how recovery time grows with log length.
//
// Three measurements on one synthetic case-study workload:
//
//   1. Raw append throughput per sync policy (no engine): records/s of
//      framed tweet payloads. kGroup uses the daemon's deferred-append +
//      batched-commit pattern (one fdatasync per ~64 records), the other
//      policies use plain Append.
//   2. Per-event ingest latency — engine only (baseline) vs WAL-logged
//      engine per policy, exact quantiles over raw samples. The deferred
//      append is on the event's path; the once-per-batch commit barrier
//      is a shared cost and is reported separately
//      (bench.commit_barrier_us) with its per-event amortization. The
//      acceptance bar: group-commit per-event p95 within 15% of the
//      no-WAL baseline.
//   3. Recovery wall time vs log length: replaying a cold log of N
//      records into a fresh engine via wal::CheckpointManager::Recover.
//   4. Served ingest: an in-process adrecd under closed-loop ingest-only
//      load, with and without --wal-sync=group. The compared metric is
//      the daemon's own per-request ingest timer (serve.cmd_tweet_us):
//      the WAL moves durability to a once-per-batch fdatasync barrier
//      (wal.fsync_us) executed before any reply is released, so the
//      per-request processing cost is what group commit promises to
//      preserve. Client-observed wire latency is reported alongside —
//      it absorbs the shared fsync wait and is expected to carry the
//      full durability price.
//
// Not a google-benchmark binary: the unit of interest is a whole logged
// stream, not a single call, so this is a plain main emitting one
// BENCH_METRICS_JSON line.
//
//   bench_wal [events]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "obs/stats_export.h"
#include "serve/client.h"
#include "serve/server.h"
#include "wal/checkpoint.h"
#include "wal/record.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace {

using adrec::Histogram;

/// The daemon commits one event-loop batch per fdatasync; 1024
/// approximates a loaded loop's batch (pipelined clients deliver hundreds
/// to thousands of lines per poll wave). The batch size also bounds how
/// many post-fsync cache-cold events pollute the per-event distribution,
/// so the gated per-event comparison stays a measurement of the append
/// path rather than of fsync recovery effects (the barrier itself is
/// reported separately as bench.commit_barrier_us).
constexpr size_t kCommitBatch = 1024;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "adrec_bench_wal" / name)
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Records/s of pure framed appends under `policy` (no engine work).
double AppendThroughput(adrec::wal::SyncPolicy policy,
                        const std::vector<std::string>& payloads) {
  const std::string dir =
      FreshDir(std::string("append_") +
               std::string(adrec::wal::SyncPolicyName(policy)));
  adrec::wal::WalOptions opts;
  opts.sync = policy;
  auto writer = adrec::wal::WalWriter::Open(dir, opts);
  ADREC_CHECK(writer.ok());
  adrec::wal::WalWriter* w = writer.value().get();

  const double start = NowUs();
  if (policy == adrec::wal::SyncPolicy::kGroup) {
    for (size_t i = 0; i < payloads.size(); ++i) {
      ADREC_CHECK(w->AppendDeferred(payloads[i]).ok());
      if ((i + 1) % kCommitBatch == 0) ADREC_CHECK(w->Commit().ok());
    }
    ADREC_CHECK(w->Commit().ok());
  } else {
    for (const std::string& p : payloads) {
      ADREC_CHECK(w->Append(p).ok());
    }
  }
  const double elapsed_us = NowUs() - start;
  std::filesystem::remove_all(dir);
  return static_cast<double>(payloads.size()) / (elapsed_us * 1e-6);
}

struct IngestResult {
  /// Raw per-event latencies (append-deferred + engine apply), for exact
  /// quantiles — the log-bucketed Histogram quantizes ~19% per bucket,
  /// coarser than the 15% bar this section gates on.
  std::vector<double> event_us;
  /// Once-per-batch commit barrier cost (the fdatasync under kGroup).
  Histogram commit_us;
};

/// Streams the trace through a 1-shard engine, optionally write-ahead
/// logging every event under `policy`, recording per-event latency.
/// A null policy pointer means no WAL at all. Payloads are pre-encoded
/// (`payloads`) — the daemon logs the raw request line, so encoding is
/// not on its hot path either.
IngestResult IngestLatency(const adrec::feed::Workload& workload,
                           const std::vector<adrec::feed::FeedEvent>& events,
                           const std::vector<std::string>& payloads,
                           const adrec::wal::SyncPolicy* policy) {
  adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                    /*num_shards=*/1);
  for (const auto& ad : workload.ads) {
    (void)engine.InsertAd(ad);
  }
  std::unique_ptr<adrec::wal::WalWriter> writer;
  std::string dir;
  if (policy != nullptr) {
    dir = FreshDir(std::string("ingest_") +
                   std::string(adrec::wal::SyncPolicyName(*policy)));
    adrec::wal::WalOptions opts;
    opts.sync = *policy;
    auto opened = adrec::wal::WalWriter::Open(dir, opts);
    ADREC_CHECK(opened.ok());
    writer = std::move(opened).value();
  }

  IngestResult result;
  result.event_us.reserve(events.size());
  size_t in_batch = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    const double start = NowUs();
    if (writer != nullptr) {
      ADREC_CHECK(writer->AppendDeferred(payloads[i]).ok());
    }
    engine.OnEvent(event);
    result.event_us.push_back(NowUs() - start);
    // The barrier fires once per filled batch — where the daemon's event
    // loop pays it before releasing the batch's replies.
    if (writer != nullptr && ++in_batch == kCommitBatch) {
      const double cstart = NowUs();
      ADREC_CHECK(writer->Commit().ok());
      result.commit_us.Record(NowUs() - cstart);
      in_batch = 0;
    }
  }
  if (writer != nullptr) {
    ADREC_CHECK(writer->Commit().ok());
    writer.reset();
    std::filesystem::remove_all(dir);
  }
  return result;
}

/// Exact quantiles over raw samples (sorts its copy of `v`).
adrec::obs::TimerStat ExactStats(std::vector<double> v) {
  adrec::obs::TimerStat s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.count = v.size();
  s.min = v.front();
  s.max = v.back();
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  auto q = [&](double p) {
    return v[std::min(v.size() - 1,
                      static_cast<size_t>(p * static_cast<double>(v.size())))];
  };
  s.p50 = q(0.50);
  s.p95 = q(0.95);
  s.p99 = q(0.99);
  return s;
}

/// Writes the first `n` events into a cold log, then times a full
/// checkpoint-less recovery into a fresh engine.
double RecoveryUs(const adrec::feed::Workload& workload,
                  const std::vector<adrec::feed::FeedEvent>& events,
                  size_t n) {
  const std::string dir =
      FreshDir(adrec::StringFormat("recover_%zu", n));
  {
    adrec::wal::WalOptions opts;
    opts.sync = adrec::wal::SyncPolicy::kNone;
    auto writer = adrec::wal::WalWriter::Open(dir, opts);
    ADREC_CHECK(writer.ok());
    for (const auto& ad : workload.ads) {
      adrec::feed::FeedEvent put;
      put.kind = adrec::feed::EventKind::kAdInsert;
      put.ad = ad;
      ADREC_CHECK(writer.value()
                      ->Append(adrec::wal::EncodeEventPayload(put))
                      .ok());
    }
    for (size_t i = 0; i < n; ++i) {
      ADREC_CHECK(writer.value()
                      ->Append(adrec::wal::EncodeEventPayload(events[i]))
                      .ok());
    }
  }
  adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                    /*num_shards=*/1);
  adrec::wal::CheckpointManager manager(dir);
  const double start = NowUs();
  auto recovered = manager.Recover(&engine);
  const double elapsed = NowUs() - start;
  ADREC_CHECK(recovered.ok());
  ADREC_CHECK(recovered.value().live_replayed == n + workload.ads.size());
  std::filesystem::remove_all(dir);
  return elapsed;
}

/// One served closed-loop ingest run (tweets + check-ins over the wire).
/// Returns the daemon's metric view; `wire_us` receives the merged
/// client-side round-trip latencies.
adrec::obs::StatsReport RunServed(const adrec::feed::Workload& workload,
                                  const std::vector<adrec::feed::FeedEvent>&
                                      events,
                                  bool with_wal, size_t connections,
                                  Histogram* wire_us) {
  adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                    /*num_shards=*/1);
  for (const auto& ad : workload.ads) {
    (void)engine.InsertAd(ad);
  }
  std::unique_ptr<adrec::wal::ShardedWal> writer;
  std::string dir;
  adrec::serve::ServerOptions sopts;
  sopts.max_connections = connections + 4;
  if (with_wal) {
    dir = FreshDir("served_group");
    adrec::wal::WalOptions opts;
    opts.sync = adrec::wal::SyncPolicy::kGroup;
    auto opened = adrec::wal::ShardedWal::Open(dir, opts);
    ADREC_CHECK(opened.ok());
    writer = std::move(opened).value();
    sopts.wal = writer.get();
  }
  adrec::serve::Server server(&engine, sopts);
  ADREC_CHECK(server.Start().ok());
  std::thread loop([&server] { server.Run(); });

  const size_t per_conn = events.size() / connections;
  std::vector<Histogram> per_client(connections);
  {
    std::vector<std::thread> clients;
    clients.reserve(connections);
    for (size_t c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        adrec::serve::Client client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) return;
        for (size_t i = 0; i < per_conn; ++i) {
          const auto& e = events[c * per_conn + i];
          const double start = NowUs();
          if (e.kind == adrec::feed::EventKind::kCheckIn) {
            (void)client.SendCheckIn(e.check_in);
          } else if (e.kind == adrec::feed::EventKind::kTweet) {
            (void)client.SendTweet(e.tweet);
          } else {
            continue;
          }
          per_client[c].Record(NowUs() - start);
        }
        client.Quit();
      });
    }
    for (auto& t : clients) t.join();
  }
  server.RequestDrain();
  loop.join();
  const adrec::obs::StatsReport report =
      adrec::obs::BuildReport(server.MergedSnapshot());
  for (const auto& h : per_client) wire_us->Merge(h);
  if (with_wal) {
    writer.reset();
    std::filesystem::remove_all(dir);
  }
  return report;
}

void AddTimer(adrec::obs::StatsReport* report, const std::string& name,
              const Histogram& hist) {
  if (hist.count() == 0) return;
  adrec::obs::TimerStat stat;
  stat.count = hist.count();
  stat.mean = hist.Mean();
  stat.p50 = hist.Quantile(0.50);
  stat.p95 = hist.Quantile(0.95);
  stat.p99 = hist.Quantile(0.99);
  stat.min = hist.min();
  stat.max = hist.max();
  report->timers[name] = stat;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t max_events =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 20000;

  adrec::feed::WorkloadOptions wopts = adrec::feed::CaseStudyOptions();
  wopts.days = 14;
  const adrec::feed::Workload workload = adrec::feed::GenerateWorkload(wopts);
  std::vector<adrec::feed::FeedEvent> events = workload.MergedEvents();
  if (events.size() > max_events) events.resize(max_events);

  std::vector<std::string> payloads;
  payloads.reserve(events.size());
  for (const auto& e : events) {
    payloads.push_back(adrec::wal::EncodeEventPayload(e));
  }

  adrec::obs::StatsReport report;
  report.counters["bench.events"] = events.size();
  report.counters["bench.commit_batch"] = kCommitBatch;

  // --- 1. Raw append throughput per policy. ---
  const adrec::wal::SyncPolicy policies[] = {adrec::wal::SyncPolicy::kNone,
                                             adrec::wal::SyncPolicy::kInterval,
                                             adrec::wal::SyncPolicy::kGroup};
  for (const auto policy : policies) {
    const double per_sec = AppendThroughput(policy, payloads);
    const std::string name(adrec::wal::SyncPolicyName(policy));
    report.counters["bench.append_per_sec_" + name] =
        static_cast<uint64_t>(per_sec);
    std::printf("bench_wal: append throughput %-8s %12.0f records/s\n",
                name.c_str(), per_sec);
  }

  // --- 2. Per-event ingest latency: baseline vs per policy. ---
  // One throwaway pass warms the allocator, the page cache and the CPU
  // before anything is measured. The measured passes interleave the
  // configurations over several rounds — a whole pass takes tens of
  // milliseconds, long enough for CPU-frequency and cache drift to skew
  // any back-to-back comparison, so each round pays the drift equally to
  // every configuration and the pooled samples compare cleanly.
  (void)IngestLatency(workload, events, payloads, nullptr);
  constexpr int kLatencyRounds = 5;
  std::vector<double> baseline_round_p95;
  std::vector<double> baseline_us;
  std::map<std::string, std::vector<double>> policy_round_p95;
  std::map<std::string, std::vector<double>> policy_us;
  Histogram commit_us;
  for (int round = 0; round < kLatencyRounds; ++round) {
    IngestResult base = IngestLatency(workload, events, payloads, nullptr);
    baseline_round_p95.push_back(ExactStats(base.event_us).p95);
    baseline_us.insert(baseline_us.end(), base.event_us.begin(),
                       base.event_us.end());
    for (const auto policy : policies) {
      IngestResult r = IngestLatency(workload, events, payloads, &policy);
      const std::string name(adrec::wal::SyncPolicyName(policy));
      policy_round_p95[name].push_back(ExactStats(r.event_us).p95);
      auto& pool = policy_us[name];
      pool.insert(pool.end(), r.event_us.begin(), r.event_us.end());
      if (policy == adrec::wal::SyncPolicy::kGroup) {
        commit_us.Merge(r.commit_us);
      }
    }
  }
  // Gate on the median of the per-round p95s: one drifted round (CPU
  // frequency, writeback) fattens a pooled distribution's tail but
  // leaves the median round untouched.
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  adrec::obs::TimerStat baseline = ExactStats(std::move(baseline_us));
  const double baseline_p95 = median(baseline_round_p95);
  baseline.p95 = baseline_p95;
  report.timers["bench.ingest_nowal_us"] = baseline;
  std::printf("bench_wal: ingest no-wal    p50=%.2fus p95=%.2fus\n",
              baseline.p50, baseline_p95);
  double group_p95 = 0.0;
  for (const auto policy : policies) {
    const std::string name(adrec::wal::SyncPolicyName(policy));
    adrec::obs::TimerStat stat = ExactStats(policy_us[name]);
    stat.p95 = median(policy_round_p95[name]);
    report.timers["bench.ingest_wal_" + name + "_us"] = stat;
    std::printf("bench_wal: ingest wal=%-8s p50=%.2fus p95=%.2fus\n",
                name.c_str(), stat.p50, stat.p95);
    if (policy == adrec::wal::SyncPolicy::kGroup) group_p95 = stat.p95;
  }
  AddTimer(&report, "bench.commit_barrier_us", commit_us);
  std::printf("bench_wal: commit barrier (group): %zu commits, "
              "mean %.1fus, amortized %.2fus/event\n",
              commit_us.count(), commit_us.Mean(),
              commit_us.Mean() * static_cast<double>(commit_us.count()) /
                  static_cast<double>(events.size() * kLatencyRounds));
  const double p95_ratio = baseline_p95 > 0.0 ? group_p95 / baseline_p95 : 0.0;
  std::printf("bench_wal: group-commit per-event p95 / no-wal p95 = %.3f "
              "(bar <1.15)\n",
              p95_ratio);

  // --- 3. Recovery wall time vs log length. ---
  for (const size_t n :
       {events.size() / 4, events.size() / 2, events.size()}) {
    if (n == 0) continue;
    const double us = RecoveryUs(workload, events, n);
    report.counters[adrec::StringFormat("bench.recovery_us.%zu", n)] =
        static_cast<uint64_t>(us);
    std::printf("bench_wal: recovery of %7zu records: %10.0f us\n", n, us);
  }

  // --- 4. Served ingest with and without group-commit WAL. ---
  const size_t connections = 6;
  Histogram wire_nowal, wire_group;
  const adrec::obs::StatsReport served_nowal =
      RunServed(workload, events, /*with_wal=*/false, connections,
                &wire_nowal);
  const adrec::obs::StatsReport served_group =
      RunServed(workload, events, /*with_wal=*/true, connections,
                &wire_group);
  auto served_timer = [](const adrec::obs::StatsReport& r,
                         const char* name) {
    auto it = r.timers.find(name);
    return it == r.timers.end() ? adrec::obs::TimerStat{} : it->second;
  };
  const adrec::obs::TimerStat ingest_nowal =
      served_timer(served_nowal, "serve.cmd_tweet_us");
  const adrec::obs::TimerStat ingest_group =
      served_timer(served_group, "serve.cmd_tweet_us");
  report.timers["bench.served_ingest_nowal_us"] = ingest_nowal;
  report.timers["bench.served_ingest_wal_group_us"] = ingest_group;
  AddTimer(&report, "bench.served_wire_nowal_us", wire_nowal);
  AddTimer(&report, "bench.served_wire_wal_group_us", wire_group);
  const adrec::obs::TimerStat group_fsync =
      served_timer(served_group, "wal.fsync_us");
  report.timers["bench.served_wal_fsync_us"] = group_fsync;
  // wal.append_us is sampled, so count appends by the counter, not the
  // timer.
  auto served_counter = [](const adrec::obs::StatsReport& r,
                           const char* name) -> uint64_t {
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second;
  };
  std::printf("bench_wal: served execute p95 no-wal=%.1fus wal=group=%.1fus; "
              "wire p95 no-wal=%.1fus wal=group=%.1fus "
              "(the wire number carries the shared fsync wait); "
              "%llu fsyncs for %llu appends\n",
              ingest_nowal.p95, ingest_group.p95,
              wire_nowal.Quantile(0.95), wire_group.Quantile(0.95),
              static_cast<unsigned long long>(group_fsync.count),
              static_cast<unsigned long long>(
                  served_counter(served_group, "wal.appends")));

  std::printf("BENCH_METRICS_JSON %s\n",
              adrec::obs::ExportJson(report).c_str());
  return 0;
}
