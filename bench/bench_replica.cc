// E20 — "What replication costs": follower lag under full-speed ingest,
// the read-replica query price, and failover-and-promote recovery time.
//
// Three measurements on one in-process leader/follower pair (two
// serve::Server event loops over real loopback sockets, the follower's
// replica::Follower polled inside its loop — the adrecd wiring, minus
// the processes):
//
//   1. Lag vs ingest rate: one closed-loop client streams tweets and
//      check-ins at the leader full speed while a sampler polls the
//      follower's `metrics` exposition, recording the
//      adrec_replica_lag_records / adrec_replica_lag_ms gauges the whole
//      time. Reported as lag histograms against the achieved ingest
//      rate, plus the catch-up time from last ack to lag zero.
//   2. Read-replica query price: the same topk queries (explicit time +
//      text, so both sides answer at the same stream position) timed
//      against the leader and against the caught-up follower. The
//      acceptance bar: follower p95 within 1.25x of the leader — same
//      engine, same index; replication should charge the read path
//      nothing but an idle streaming fd in the poll set.
//   3. Failover: stop the leader, `promote` the follower, and write to
//      it — the wall time from leader death to the first acknowledged
//      write on the promoted daemon.
//
// Not a google-benchmark binary: the unit of interest is a replication
// session, not a single call, so this is a plain main emitting one
// BENCH_METRICS_JSON line.
//
//   bench_replica [ingest_events] [topk_queries]

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/histogram.h"
#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "obs/stats_export.h"
#include "replica/follower.h"
#include "serve/client.h"
#include "serve/server.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"

namespace {

using adrec::Histogram;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One in-process daemon: engine + WAL + server (+ follower when it
/// replicates) — the same wiring examples/adrecd.cpp does. Each daemon
/// generates its own workload (deterministic, so all copies are
/// identical): the workload owns the Analyzer whose Vocabulary is
/// mutated on every analyzed tweet, and that structure is
/// single-writer — per-daemon here, per-process in production.
struct Daemon {
  adrec::feed::Workload workload;
  std::string wal_dir;
  std::unique_ptr<adrec::wal::CheckpointManager> checkpointer;
  std::unique_ptr<adrec::wal::ShardedWal> wal;
  std::unique_ptr<adrec::core::ShardedEngine> engine;
  std::unique_ptr<adrec::replica::Follower> follower;
  std::unique_ptr<adrec::serve::Server> server;
  std::thread thread;

  bool Start(const adrec::feed::WorkloadOptions& wopts,
             const std::string& dir, uint16_t leader_port) {
    workload = adrec::feed::GenerateWorkload(wopts);
    wal_dir = dir;
    checkpointer = std::make_unique<adrec::wal::CheckpointManager>(dir);
    engine = std::make_unique<adrec::core::ShardedEngine>(
        workload.kb, workload.slots, /*num_shards=*/1);
    auto recovered = checkpointer->Recover(engine.get());
    if (!recovered.ok()) return false;
    auto opened = adrec::wal::ShardedWal::Open(
        dir, adrec::wal::WalOptions{}, recovered.value().stream_next_seqnos);
    if (!opened.ok()) return false;
    wal = std::move(opened).value();

    adrec::serve::ServerOptions options;
    options.wal = wal.get();
    options.checkpointer = checkpointer.get();
    options.repl_heartbeat_interval = 0.05;  // fast lag_ms resolution
    if (leader_port != 0) {
      adrec::replica::FollowerOptions fopts;
      fopts.port = leader_port;
      fopts.backoff_initial = 0.05;
      follower = std::make_unique<adrec::replica::Follower>(
          engine.get(), wal.get(), 0, fopts);
      options.followers = {follower.get()};
    }
    server = std::make_unique<adrec::serve::Server>(engine.get(), options);
    if (!server->Start().ok()) return false;
    thread = std::thread([this] { server->Run(); });
    return true;
  }

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

/// Extracts one `adrec_...` sample value from a Prometheus payload.
bool MetricValue(const std::string& payload, const std::string& name,
                 double* value) {
  const size_t pos = payload.find("\n" + name + " ");
  if (pos == std::string::npos) return false;
  *value = std::strtod(payload.c_str() + pos + 1 + name.size(), nullptr);
  return true;
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
  const size_t ingest_events =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 4000;
  const size_t topk_queries =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 400;

  adrec::feed::WorkloadOptions wopts = adrec::feed::CaseStudyOptions();
  wopts.days = 7;
  const adrec::feed::Workload workload =
      adrec::feed::GenerateWorkload(wopts);

  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("adrec_bench_replica_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(base);

  Daemon leader;
  Daemon follower;
  if (!leader.Start(wopts, base + "/leader", 0)) {
    std::fprintf(stderr, "leader start failed\n");
    return 1;
  }
  if (!follower.Start(wopts, base + "/follower",
                      leader.server->port())) {
    std::fprintf(stderr, "follower start failed\n");
    return 1;
  }

  adrec::serve::Client ingest;
  if (!ingest.Connect("127.0.0.1", leader.server->port()).ok()) return 1;
  size_t errors = 0;
  uint64_t acked = 0;
  for (const auto& ad : workload.ads) {
    if (ingest.PutAd(ad).ok()) ++acked; else ++errors;
  }

  // --- 1. Full-speed ingest with a concurrent lag sampler. ---
  Histogram lag_records, lag_ms, ingest_us;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    adrec::serve::Client probe;
    if (!probe.Connect("127.0.0.1", follower.server->port()).ok()) return;
    while (sampling.load(std::memory_order_relaxed)) {
      auto metrics = probe.Metrics();
      if (metrics.ok()) {
        double v = 0;
        if (MetricValue(metrics.value(), "adrec_replica_lag_records", &v))
          lag_records.Record(v);
        if (MetricValue(metrics.value(), "adrec_replica_lag_ms", &v))
          lag_ms.Record(v);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe.Quit();
  });

  const double ingest_start = NowUs();
  const auto& tweets = workload.tweets;
  const auto& checkins = workload.check_ins;
  for (size_t i = 0; i < ingest_events; ++i) {
    const double start = NowUs();
    const bool ok = (i % 3 != 2)
                        ? ingest.SendTweet(tweets[i % tweets.size()]).ok()
                        : ingest.SendCheckIn(
                              checkins[i % checkins.size()]).ok();
    ingest_us.Record(NowUs() - start);
    if (ok) ++acked; else ++errors;
  }
  const double ingest_secs = (NowUs() - ingest_start) * 1e-6;

  // Catch-up: last ack to applied == acked, on the sampler's probe path.
  const double catchup_start = NowUs();
  double applied = 0;
  {
    adrec::serve::Client probe;
    if (!probe.Connect("127.0.0.1", follower.server->port()).ok()) return 1;
    while (applied < static_cast<double>(acked)) {
      auto metrics = probe.Metrics();
      if (!metrics.ok() ||
          !MetricValue(metrics.value(), "adrec_replica_applied_seqno",
                       &applied)) {
        std::fprintf(stderr, "no applied_seqno gauge on the follower\n");
        return 1;
      }
      if ((NowUs() - catchup_start) * 1e-6 > 30.0) {
        std::fprintf(stderr, "follower stuck at %.0f/%llu\n", applied,
                     static_cast<unsigned long long>(acked));
        return 1;
      }
    }
    probe.Quit();
  }
  const double catchup_ms = (NowUs() - catchup_start) * 1e-3;
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  // --- 2. The same topk queries against both sides. ---
  Histogram leader_topk_us, follower_topk_us;
  {
    adrec::serve::Client lq, fq;
    if (!lq.Connect("127.0.0.1", leader.server->port()).ok()) return 1;
    if (!fq.Connect("127.0.0.1", follower.server->port()).ok()) return 1;
    for (int warm = 0; warm < 20; ++warm) {  // connection + cache warmup
      const auto& t = tweets[static_cast<size_t>(warm) % tweets.size()];
      (void)lq.TopK(t.user, 5, t.time, t.text);
      (void)fq.TopK(t.user, 5, t.time, t.text);
    }
    for (size_t i = 0; i < topk_queries; ++i) {
      const auto& t = tweets[i % tweets.size()];
      double start = NowUs();
      if (!lq.TopK(t.user, 5, t.time, t.text).ok()) ++errors;
      leader_topk_us.Record(NowUs() - start);
      start = NowUs();
      if (!fq.TopK(t.user, 5, t.time, t.text).ok()) ++errors;
      follower_topk_us.Record(NowUs() - start);
    }
    lq.Quit();
    fq.Quit();
  }
  const double p95_ratio =
      leader_topk_us.Quantile(0.95) > 0
          ? follower_topk_us.Quantile(0.95) / leader_topk_us.Quantile(0.95)
          : 0.0;

  // --- 3. Failover: leader dies, promote, first acknowledged write. ---
  const double failover_start = NowUs();
  leader.Stop();
  double promote_us = 0;
  {
    adrec::serve::Client admin;
    if (!admin.Connect("127.0.0.1", follower.server->port()).ok()) return 1;
    const double t0 = NowUs();
    auto reply = admin.Command("promote");
    promote_us = NowUs() - t0;
    if (!reply.ok() || reply.value().rfind("OK", 0) != 0) {
      std::fprintf(stderr, "promote failed: %s\n",
                   reply.ok() ? reply.value().c_str()
                              : reply.status().ToString().c_str());
      return 1;
    }
    if (!admin.SendTweet(tweets[0]).ok()) {
      std::fprintf(stderr, "post-promotion write rejected\n");
      return 1;
    }
    admin.Quit();
  }
  const double failover_ms = (NowUs() - failover_start) * 1e-3;

  ingest.Quit();
  follower.Stop();
  std::filesystem::remove_all(base);

  const double rate = ingest_secs > 0 ? ingest_events / ingest_secs : 0.0;
  std::printf("bench_replica: %zu events at %.0f events/s, %zu errors\n",
              ingest_events, rate, errors);
  std::printf("  lag       p50=%.0f p95=%.0f records, p95=%.1fms; "
              "catch-up %.1fms\n",
              lag_records.Quantile(0.5), lag_records.Quantile(0.95),
              lag_ms.Quantile(0.95), catchup_ms);
  std::printf("  topk p95  leader=%.1fus follower=%.1fus (%.2fx, bar 1.25x)\n",
              leader_topk_us.Quantile(0.95),
              follower_topk_us.Quantile(0.95), p95_ratio);
  std::printf("  failover  promote=%.1fus, death-to-first-write %.1fms\n",
              promote_us, failover_ms);

  adrec::obs::StatsReport report;
  AddTimer(&report, "bench.ingest_ack_us", ingest_us);
  AddTimer(&report, "bench.leader_topk_us", leader_topk_us);
  AddTimer(&report, "bench.follower_topk_us", follower_topk_us);
  AddTimer(&report, "bench.lag_records", lag_records);
  AddTimer(&report, "bench.lag_ms", lag_ms);
  report.gauges["bench.topk_p95_ratio"] = p95_ratio;
  report.gauges["bench.ingest_events_per_sec"] = rate;
  report.gauges["bench.catchup_ms"] = catchup_ms;
  report.gauges["bench.promote_us"] = promote_us;
  report.gauges["bench.failover_to_first_write_ms"] = failover_ms;
  report.counters["bench.ingest_events"] = ingest_events;
  report.counters["bench.acked_records"] = acked;
  report.counters["bench.errors"] = errors;
  std::printf("BENCH_METRICS_JSON %s\n",
              adrec::obs::ExportJson(report).c_str());
  return errors == 0 ? 0 : 1;
}
