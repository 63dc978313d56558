// E24 — "Multi-core scaling of the worker pool": one deterministic
// Zipf op stream (closed loop, N concurrent connections) replayed
// against the same 4-shard engine served by one serve::Server at 1, 2
// and 4 workers (event-loop lanes).
// Aggregate throughput and client-side topk p95 per worker count give
// the scaling curve; the stream and the connection count are identical
// across rounds, so only server-side parallelism varies.
//
// Self-gating is hardware-aware: the >=1.6x (2 workers) and >=2.5x
// (4 workers) speedup floors only apply when the machine actually has
// that many cores — on smaller hosts (CI containers are often 1-core)
// the pool cannot beat one event loop, so the gate degrades to a
// non-collapse bound (pool throughput >= 0.3x single-threaded, i.e.
// shard-lock contention and worker wakeups must not eat the server). The
// core count rides in BENCH_METRICS_JSON so a baseline from one host
// is legible on another.
//
//   bench_pool [ops] [connections]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "core/sharded_engine.h"
#include "feed/loadgen.h"
#include "feed/workload.h"
#include "obs/stats_export.h"
#include "serve/server.h"

namespace {

using adrec::Histogram;

struct RoundResult {
  size_t workers = 0;
  adrec::feed::LoadRunStats stats;
};

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
  const size_t ops =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;
  const size_t connections =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 8;
  constexpr size_t kShards = 4;
  const std::vector<size_t> worker_counts = {1, 2, 4};

  // One shared workload builds the KB, the inventory, the warm-up trace
  // and the phrase pool; every round re-derives its engine from it so
  // the three servers answer over identical state.
  adrec::feed::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_users = 1000;
  wopts.num_places = 64;
  wopts.num_ads = 200;
  wopts.days = 2;
  const adrec::feed::Workload workload =
      adrec::feed::GenerateWorkload(wopts);

  std::vector<std::string> phrases;
  for (size_t i = 0; i < workload.tweets.size() && phrases.size() < 512;
       i += 7) {
    phrases.push_back(workload.tweets[i].text);
  }
  adrec::Timestamp prime_end = 0;
  for (const auto& t : workload.tweets) {
    prime_end = std::max(prime_end, t.time);
  }
  for (const auto& c : workload.check_ins) {
    prime_end = std::max(prime_end, c.time);
  }

  auto run_one = [&](size_t workers, RoundResult* out) -> bool {
    adrec::core::EngineOptions eopts;
    eopts.frequency_cap.max_impressions = 0;  // read-heavy serving
    adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                      kShards, eopts);
    for (adrec::feed::Ad ad : workload.ads) {
      ad.budget_impressions = 0;  // unlimited
      if (auto s = engine.InsertAd(ad); !s.ok()) {
        std::fprintf(stderr, "insert ad: %s\n", s.ToString().c_str());
        return false;
      }
    }
    for (const auto& event : workload.MergedEvents()) engine.OnEvent(event);

    adrec::serve::ServerOptions sopts;
    sopts.max_connections = connections + 4;

    // The same deterministic op stream every round: seed fixed, ops
    // pre-generated by RunLoadMulti, connection count constant.
    adrec::feed::LoadGenOptions gopts;
    gopts.seed = 99;
    gopts.num_users = wopts.num_users;
    gopts.num_cells = wopts.num_places;
    gopts.user_skew = 0.99;
    gopts.ingest_fraction = 0.10;
    gopts.checkin_fraction = 0.30;
    gopts.ingests_per_second = 1000;
    gopts.start_time = prime_end + 1;
    adrec::feed::LoadGen gen(gopts, phrases);

    adrec::feed::LoadRunOptions ropts;
    ropts.num_ops = ops;
    ropts.open_loop_rate = 0.0;  // closed loop: measure the service rate
    ropts.connections = connections;

    out->workers = workers;
    sopts.workers = workers;
    adrec::serve::Server server(&engine, sopts);
    if (auto s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return false;
    }
    server.SeedStreamClock(prime_end);
    std::thread loop([&server] { server.Run(); });
    out->stats =
        adrec::feed::RunLoadMulti("127.0.0.1", server.port(), &gen, ropts);
    server.RequestDrain();
    loop.join();
    return out->stats.errors == 0;
  };

  std::vector<RoundResult> results;
  for (const size_t workers : worker_counts) {
    RoundResult result;
    if (!run_one(workers, &result)) {
      std::fprintf(stderr, "bench_pool: run failed (workers=%zu)\n",
                   workers);
      return 1;
    }
    std::printf(
        "bench_pool: workers=%zu ops=%zu conns=%zu %.0f ops/s "
        "topk p50=%.1fus p95=%.1fus p99=%.1fus\n",
        workers, result.stats.ops, connections,
        result.stats.achieved_ops_per_sec,
        result.stats.topk_latency_us.Quantile(0.50),
        result.stats.topk_latency_us.Quantile(0.95),
        result.stats.topk_latency_us.Quantile(0.99));
    results.push_back(std::move(result));
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double tp1 = results[0].stats.achieved_ops_per_sec;
  bool gate_failed = false;
  adrec::obs::StatsReport report;
  report.counters["bench.cores"] = cores;
  report.counters["bench.ops"] = ops;
  report.counters["bench.connections"] = connections;
  for (const RoundResult& r : results) {
    const std::string suffix = "_w" + std::to_string(r.workers);
    AddTimer(&report, "bench.topk_us" + suffix, r.stats.topk_latency_us);
    AddTimer(&report, "bench.ingest_us" + suffix,
             r.stats.ingest_latency_us);
    report.counters["bench.throughput" + suffix] =
        static_cast<uint64_t>(r.stats.achieved_ops_per_sec);
    if (r.workers == 1) continue;

    const double speedup = tp1 > 0.0
                               ? r.stats.achieved_ops_per_sec / tp1
                               : 0.0;
    report.counters["bench.speedup_pct" + suffix] =
        static_cast<uint64_t>(speedup * 100.0);
    // Scaling floors from EXPERIMENTS.md E24 apply only when the
    // hardware can host every worker; otherwise workers time-slice
    // one another and the honest bound is
    // "the pool machinery must not collapse throughput".
    const double floor =
        cores >= r.workers ? (r.workers >= 4 ? 2.5 : 1.6) : 0.3;
    std::printf("bench_pool: workers=%zu speedup=%.2fx (floor %.2fx, %u "
                "cores)\n",
                r.workers, speedup, floor, cores);
    if (speedup < floor) {
      std::fprintf(stderr,
                   "bench_pool: GATE FAILED: %zu workers reached %.2fx "
                   "vs single-threaded, need >= %.2fx on %u cores\n",
                   r.workers, speedup, floor, cores);
      gate_failed = true;
    }
  }

  std::printf("BENCH_METRICS_JSON %s\n",
              adrec::obs::ExportJson(report).c_str());
  return gate_failed ? 1 : 0;
}
