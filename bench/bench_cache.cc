// E22 — "Hot-result caching under skewed feed traffic": closed-loop (and
// optionally open-loop) Zipf load against an in-process adrecd with the
// topk result cache on vs off, at configurable user skew. Each run
// drives the identical deterministic op stream (src/feed/loadgen) so the
// cached and uncached numbers answer the same question, and reports the
// client-side topk latency plus the daemon's cache.* counters.
//
// The engine runs with the frequency cap disabled and unlimited ad
// budgets: serving is then read-only, which isolates the cache's effect
// on the query path (the differential tests own the correctness story
// when serving mutates).
//
// Self-gates (exit non-zero): client errors; cached hit ratio must
// exceed 80% at skew >= 0.99; and the cached topk p95 at every skew must
// not exceed 1.25x the *uncached* p95 at skew 0 (the "caching never
// costs you the unskewed baseline" acceptance bar, with cross-run noise
// margin).
//
//   bench_cache [ops_per_run] [skew ...] [--cache=N] [--users=N]
//               [--open-rates=R1,R2,...]
//
// Defaults: 20000 ops, skews {0, 0.99}, 4096 cache entries, 1000 users.
// --open-rates adds open-loop runs (uniform arrivals at R ops/sec, both
// modes, at the *last* listed skew) for latency-vs-throughput curves;
// open-loop numbers are printed but not part of the gated JSON.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "core/sharded_engine.h"
#include "feed/loadgen.h"
#include "feed/workload.h"
#include "obs/stats_export.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using adrec::Histogram;

struct RunResult {
  double skew = 0.0;
  bool cached = false;
  adrec::feed::LoadRunStats stats;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double hit_ratio = 0.0;
};

std::string SkewLabel(double skew) {
  std::string label = "s";
  label.append(std::to_string(skew));
  // Trim trailing zeros ("0.990000" -> "0.99"), then make it a metric
  // token ("0.99" -> "0_99").
  while (!label.empty() && label.back() == '0') label.pop_back();
  if (!label.empty() && label.back() == '.') label.pop_back();
  std::replace(label.begin(), label.end(), '.', '_');
  return label;
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
  size_t ops = 20000;
  size_t cache_entries = 4096;
  size_t users = 1000;
  std::vector<double> skews;
  std::vector<double> open_rates;

  bool ops_set = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--cache=", 8) == 0) {
      cache_entries = static_cast<size_t>(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--users=", 8) == 0) {
      users = static_cast<size_t>(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--open-rates=", 13) == 0) {
      for (const char* p = arg + 13; *p != '\0';) {
        open_rates.push_back(std::strtod(p, nullptr));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (!ops_set) {
      ops = static_cast<size_t>(std::atoll(arg));
      ops_set = true;
    } else {
      skews.push_back(std::atof(arg));
    }
  }
  if (skews.empty()) skews = {0.0, 0.99};

  // One shared workload builds the KB, the priming trace, the inventory
  // and the phrase pool; every run re-derives its engine from it.
  adrec::feed::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_users = users;
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
  for (const auto& t : workload.tweets) prime_end = std::max(prime_end, t.time);
  for (const auto& c : workload.check_ins) {
    prime_end = std::max(prime_end, c.time);
  }

  std::vector<RunResult> results;
  bool gate_failed = false;

  auto run_one = [&](double skew, bool cached, double open_rate,
                     RunResult* out) -> bool {
    adrec::core::EngineOptions eopts;
    eopts.frequency_cap.max_impressions = 0;  // read-only serving
    adrec::core::ShardedEngine engine(workload.kb, workload.slots,
                                      /*num_shards=*/1, eopts);
    for (adrec::feed::Ad ad : workload.ads) {
      ad.budget_impressions = 0;  // unlimited
      if (auto s = engine.InsertAd(ad); !s.ok()) {
        std::fprintf(stderr, "insert ad: %s\n", s.ToString().c_str());
        return false;
      }
    }
    // Warm profiles/locations so topk answers are non-trivial.
    for (const auto& event : workload.MergedEvents()) engine.OnEvent(event);

    adrec::serve::ServerOptions sopts;
    sopts.max_connections = 8;
    sopts.topk_cache.capacity = cached ? cache_entries : 0;
    adrec::serve::Server server(&engine, sopts);
    if (auto s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return false;
    }
    server.SeedStreamClock(prime_end);
    std::thread loop([&server] { server.Run(); });

    adrec::feed::LoadGenOptions gopts;
    gopts.seed = 1000 + static_cast<uint64_t>(skew * 1000.0);
    gopts.num_users = users;
    gopts.num_cells = wopts.num_places;
    gopts.user_skew = skew;
    // High-speed feed: many events share each stream-second, so the
    // stream clock (and with it the identity of time-less topk queries)
    // advances slowly relative to the op stream.
    gopts.ingest_fraction = 0.04;
    gopts.checkin_fraction = 0.15;
    gopts.ingests_per_second = 1000;
    gopts.start_time = prime_end + 1;
    adrec::feed::LoadGen gen(gopts, phrases);

    adrec::serve::Client client;
    bool ok = client.Connect("127.0.0.1", server.port()).ok();
    adrec::feed::LoadRunOptions ropts;
    ropts.num_ops = ops;
    ropts.open_loop_rate = open_rate;
    if (ok) {
      out->stats = adrec::feed::RunLoad(&client, &gen, ropts);
      client.Quit();
    }
    server.RequestDrain();
    loop.join();

    out->skew = skew;
    out->cached = cached;
    if (cached) {
      const adrec::obs::MetricsSnapshot view = server.MergedSnapshot();
      auto hit = view.counters.find("cache.hits");
      auto miss = view.counters.find("cache.misses");
      out->cache_hits = hit == view.counters.end()
                            ? 0
                            : static_cast<uint64_t>(hit->second);
      out->cache_misses = miss == view.counters.end()
                              ? 0
                              : static_cast<uint64_t>(miss->second);
      const uint64_t total = out->cache_hits + out->cache_misses;
      out->hit_ratio = total == 0 ? 0.0
                                  : static_cast<double>(out->cache_hits) /
                                        static_cast<double>(total);
    }
    return ok && out->stats.errors == 0;
  };

  for (const double skew : skews) {
    for (const bool cached : {false, true}) {
      RunResult result;
      if (!run_one(skew, cached, /*open_rate=*/0.0, &result)) {
        std::fprintf(stderr, "bench_cache: run failed (skew=%g %s)\n", skew,
                     cached ? "cached" : "uncached");
        return 1;
      }
      std::printf(
          "bench_cache: skew=%-5g %-8s ops=%zu topk p50=%.1fus p95=%.1fus "
          "p99=%.1fus %.0f ops/s%s\n",
          skew, cached ? "cached" : "uncached", result.stats.ops,
          result.stats.topk_latency_us.Quantile(0.50),
          result.stats.topk_latency_us.Quantile(0.95),
          result.stats.topk_latency_us.Quantile(0.99),
          result.stats.achieved_ops_per_sec,
          cached ? (" hit_ratio=" + std::to_string(result.hit_ratio)).c_str()
                 : "");
      results.push_back(std::move(result));
    }
  }

  // Optional latency-vs-throughput sweep at the last listed skew.
  for (const double rate : open_rates) {
    for (const bool cached : {false, true}) {
      RunResult result;
      if (!run_one(skews.back(), cached, rate, &result)) {
        std::fprintf(stderr, "bench_cache: open-loop run failed\n");
        return 1;
      }
      std::printf(
          "bench_cache: open-loop rate=%-7g skew=%g %-8s achieved=%.0f "
          "ops/s topk p50=%.1fus p95=%.1fus p99=%.1fus%s\n",
          rate, skews.back(), cached ? "cached" : "uncached",
          result.stats.achieved_ops_per_sec,
          result.stats.topk_latency_us.Quantile(0.50),
          result.stats.topk_latency_us.Quantile(0.95),
          result.stats.topk_latency_us.Quantile(0.99),
          cached ? (" hit_ratio=" + std::to_string(result.hit_ratio)).c_str()
                 : "");
    }
  }

  // --- Self-gates over the closed-loop runs. ---
  double uncached_p95_s0 = 0.0;
  for (const RunResult& r : results) {
    if (!r.cached && r.skew == 0.0) {
      uncached_p95_s0 = r.stats.topk_latency_us.Quantile(0.95);
    }
  }
  for (const RunResult& r : results) {
    if (r.cached && r.skew >= 0.99 && r.hit_ratio <= 0.80) {
      std::fprintf(stderr,
                   "bench_cache: GATE hit_ratio %.3f <= 0.80 at skew %g\n",
                   r.hit_ratio, r.skew);
      gate_failed = true;
    }
    if (r.cached && uncached_p95_s0 > 0.0) {
      const double p95 = r.stats.topk_latency_us.Quantile(0.95);
      if (p95 > 1.25 * uncached_p95_s0) {
        std::fprintf(stderr,
                     "bench_cache: GATE cached topk p95 %.1fus at skew %g "
                     "> 1.25x uncached-at-skew-0 p95 %.1fus\n",
                     p95, r.skew, uncached_p95_s0);
        gate_failed = true;
      }
    }
  }

  // One machine-readable line for ci_bench_gate.sh. Only bench.* metrics
  // from the closed-loop runs: a focused, stable surface to diff.
  adrec::obs::StatsReport report;
  for (const RunResult& r : results) {
    const std::string label =
        "bench." + SkewLabel(r.skew) + (r.cached ? "_cached" : "_uncached");
    AddTimer(&report, label + "_topk_us", r.stats.topk_latency_us);
    AddTimer(&report, label + "_ingest_us", r.stats.ingest_latency_us);
    if (r.cached) {
      report.counters[label + "_cache_hits"] = r.cache_hits;
      report.counters[label + "_cache_misses"] = r.cache_misses;
      report.gauges[label + "_hit_ratio"] = r.hit_ratio;
    }
    report.gauges[label + "_ops_per_sec"] = r.stats.achieved_ops_per_sec;
  }
  report.counters["bench.ops_per_run"] = ops;
  report.counters["bench.cache_entries"] = cache_entries;
  report.counters["bench.users"] = users;
  std::printf("BENCH_METRICS_JSON %s\n",
              adrec::obs::ExportJson(report).c_str());

  return gate_failed ? 1 : 0;
}
