#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"

namespace adrec::obs {
namespace {

/// A minimal 0.0.4 exposition checker: every non-comment line must be
/// `name[{label}] value`, every series must follow its own # TYPE line.
void CheckParseable(const std::string& payload) {
  std::string current_family;
  for (std::string_view line : SplitString(payload, '\n')) {
    if (line.empty()) continue;
    if (StartsWith(line, "# TYPE ")) {
      const auto parts = SplitString(line, ' ');
      ASSERT_EQ(parts.size(), 4u) << line;
      current_family = std::string(parts[2]);
      EXPECT_TRUE(parts[3] == "counter" || parts[3] == "gauge" ||
                  parts[3] == "histogram")
          << line;
      continue;
    }
    ASSERT_FALSE(StartsWith(line, "#")) << "unknown comment: " << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string_view::npos) << line;
    const std::string_view series = line.substr(0, space);
    const std::string_view value = line.substr(space + 1);
    // Series must belong to the current TYPE family.
    EXPECT_TRUE(StartsWith(series, current_family))
        << series << " after TYPE " << current_family;
    // Value must parse as a number.
    char* end = nullptr;
    const std::string value_str(value);
    std::strtod(value_str.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
  }
}

TEST(PrometheusExportTest, CountersGetTotalSuffixAndSanitizedNames) {
  MetricsSnapshot snapshot;
  snapshot.counters["engine.tweets"] = 42;
  const std::string out = ExportPrometheus(snapshot);
  EXPECT_NE(out.find("# TYPE adrec_engine_tweets_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("adrec_engine_tweets_total 42\n"), std::string::npos);
  CheckParseable(out);
}

TEST(PrometheusExportTest, GaugesAreVerbatim) {
  MetricsSnapshot snapshot;
  snapshot.gauges["serve.connections_active"] = 3.0;
  const std::string out = ExportPrometheus(snapshot);
  EXPECT_NE(out.find("# TYPE adrec_serve_connections_active gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("adrec_serve_connections_active 3\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, MicrosecondTimersBecomeSeconds) {
  MetricsSnapshot snapshot;
  Histogram h;
  h.Record(1000.0);  // 1000us = 1ms
  h.Record(1000.0);
  snapshot.timers["engine.annotate_us"] = h;
  const std::string out = ExportPrometheus(snapshot);

  // Renamed with base-unit suffix; no _us remnant.
  EXPECT_NE(out.find("# TYPE adrec_engine_annotate_seconds histogram\n"),
            std::string::npos);
  EXPECT_EQ(out.find("annotate_us"), std::string::npos);

  // The sum is scaled to seconds: 2000us → 0.002s.
  EXPECT_NE(out.find("adrec_engine_annotate_seconds_sum 0.002\n"),
            std::string::npos);
  EXPECT_NE(out.find("adrec_engine_annotate_seconds_count 2\n"),
            std::string::npos);
  // Bucket bounds are scaled too: every le is well under one second.
  EXPECT_EQ(out.find("le=\"1000"), std::string::npos);
  CheckParseable(out);
}

TEST(PrometheusExportTest, HistogramBucketsAreCumulativeAndEndWithInf) {
  MetricsSnapshot snapshot;
  Histogram h;
  h.Record(1.0);
  h.Record(100.0);
  h.Record(10000.0);
  snapshot.timers["serve.cmd_topk_us"] = h;
  const std::string out = ExportPrometheus(snapshot);

  // Collect the bucket counts in order; they must be non-decreasing and
  // finish at the +Inf bucket with the total count.
  std::vector<uint64_t> counts;
  for (std::string_view line : SplitString(out, '\n')) {
    if (line.find("_bucket{") == std::string_view::npos) continue;
    const size_t space = line.rfind(' ');
    counts.push_back(
        std::strtoull(std::string(line.substr(space + 1)).c_str(),
                      nullptr, 10));
  }
  ASSERT_GE(counts.size(), 2u);
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]);
  }
  EXPECT_EQ(counts.back(), 3u);  // +Inf == _count
  EXPECT_NE(out.find("_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
}

TEST(PrometheusExportTest, FullRegistryRoundIsParseable) {
  MetricRegistry registry;
  registry.GetCounter("engine.tweets")->Inc(10);
  registry.GetCounter("serve.bytes_in")->Inc(1 << 20);
  registry.GetGauge("tfca.lattice_size")->Set(128);
  Timer* t = registry.GetTimer("engine.topk_us");
  for (int i = 1; i <= 100; ++i) t->Record(static_cast<double>(i));
  CheckParseable(ExportPrometheus(registry.Snapshot()));
}

TEST(PrometheusExportTest, EmptySnapshotIsEmptyPayload) {
  EXPECT_EQ(ExportPrometheus(MetricsSnapshot{}), "");
}

// A timer that exists but was never recorded (a daemon scraped before
// its first request) must still expose a complete, parseable histogram:
// zero count, zero sum, and a zero +Inf bucket — not a missing family.
TEST(PrometheusExportTest, EmptyHistogramExposesZeroSeries) {
  MetricRegistry registry;
  registry.GetTimer("serve.cmd_trace_us");  // created, never recorded
  const std::string out = ExportPrometheus(registry.Snapshot());

  EXPECT_NE(out.find("# TYPE adrec_serve_cmd_trace_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("adrec_serve_cmd_trace_seconds_count 0\n"),
            std::string::npos);
  EXPECT_NE(out.find("adrec_serve_cmd_trace_seconds_sum 0\n"),
            std::string::npos);
  EXPECT_NE(out.find("_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
  CheckParseable(out);
}

// The exposition is sparse: zero-count interior buckets are skipped
// (Prometheus's cumulative-bucket semantics tolerate missing `le`s).
// Samples far apart — a run of empty buckets between them — must still
// yield a monotone cumulative run, strictly ascending bounds, and a
// +Inf bucket equal to _count.
TEST(PrometheusExportTest, ZeroCountBucketsSkipSafely) {
  MetricsSnapshot snapshot;
  Histogram h;
  h.Record(1.0);  // lowest bucket
  h.Record(1e6);  // far up the range; everything between is zero-count
  snapshot.timers["wal.fsync_us"] = h;
  const std::string out = ExportPrometheus(snapshot);

  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  for (std::string_view line : SplitString(out, '\n')) {
    const size_t le = line.find("_bucket{le=\"");
    if (le == std::string_view::npos) continue;
    const std::string bound(line.substr(le + 12, line.find('"', le + 12)));
    bounds.push_back(bound.substr(0, 4) == "+Inf"
                         ? std::numeric_limits<double>::infinity()
                         : std::strtod(bound.c_str(), nullptr));
    counts.push_back(std::strtoull(
        std::string(line.substr(line.rfind(' ') + 1)).c_str(), nullptr, 10));
  }
  ASSERT_GE(counts.size(), 3u);  // two samples + +Inf, empty run skipped
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i], counts[i - 1]) << "cumulative count regressed";
    EXPECT_GT(bounds[i], bounds[i - 1]) << "bucket bounds not ascending";
  }
  for (size_t i = 0; i + 1 < counts.size(); ++i) {
    EXPECT_GT(counts[i], 0u) << "sparse exposition leaked an empty bucket";
  }
  EXPECT_EQ(counts.back(), 2u);  // +Inf == _count
  CheckParseable(out);
}

// Raw metric names with characters Prometheus forbids must survive the
// JSON report round-trip verbatim (the JSON carries raw names) and then
// sanitise identically on exposition — the `stats.json` a daemon writes
// and the `metrics` payload it serves must never disagree on a name.
TEST(PrometheusExportTest, NameSanitisationRoundTripsThroughParseJson) {
  MetricRegistry registry;
  registry.GetCounter("serve.cmd-weird/name.events")->Inc(7);
  registry.GetGauge("replica.lag ms")->Set(2.5);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string prom = ExportPrometheus(snapshot);
  EXPECT_NE(prom.find("adrec_serve_cmd_weird_name_events_total 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_replica_lag_ms 2.5\n"), std::string::npos);
  CheckParseable(prom);

  // Through the JSON reporter and back: raw names intact.
  const StatsReport report = BuildReport(snapshot);
  const std::string json = ExportJson(report);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(ExportJson(parsed.value()), json);
  ASSERT_EQ(parsed.value().counters.count("serve.cmd-weird/name.events"), 1u);
  EXPECT_EQ(parsed.value().counters.at("serve.cmd-weird/name.events"), 7u);
  ASSERT_EQ(parsed.value().gauges.count("replica.lag ms"), 1u);
  EXPECT_EQ(parsed.value().gauges.at("replica.lag ms"), 2.5);

  // Re-exposing the parsed counters yields the same sanitised families.
  MetricsSnapshot round;
  for (const auto& [name, value] : parsed.value().counters) {
    round.counters[name] = static_cast<int64_t>(value);
  }
  for (const auto& [name, value] : parsed.value().gauges) {
    round.gauges[name] = value;
  }
  const std::string prom2 = ExportPrometheus(round);
  EXPECT_NE(prom2.find("adrec_serve_cmd_weird_name_events_total 7\n"),
            std::string::npos);
  EXPECT_NE(prom2.find("adrec_replica_lag_ms 2.5\n"), std::string::npos);
}

// The topk cache's metric families (PR: --topk-cache): counters get the
// adrec_ prefix and _total suffix, the hit-ratio gauge keeps its raw
// value, and the lookup/fill timers expose as _seconds histograms — and
// all of them survive the JSON round-trip with raw names intact.
TEST(PrometheusExportTest, CacheMetricFamiliesExposeAndRoundTrip) {
  MetricRegistry registry;
  registry.GetCounter("cache.hits")->Inc(9);
  registry.GetCounter("cache.misses")->Inc(3);
  registry.GetCounter("cache.invalidations")->Inc(2);
  registry.GetCounter("cache.evictions")->Inc(1);
  registry.GetGauge("cache.hit_ratio")->Set(0.75);
  registry.GetTimer("cache.lookup_us")->Record(12.5);
  registry.GetTimer("cache.fill_us")->Record(80.0);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string prom = ExportPrometheus(snapshot);
  EXPECT_NE(prom.find("# TYPE adrec_cache_hits_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_cache_hits_total 9\n"), std::string::npos);
  EXPECT_NE(prom.find("adrec_cache_misses_total 3\n"), std::string::npos);
  EXPECT_NE(prom.find("adrec_cache_invalidations_total 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_cache_evictions_total 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE adrec_cache_hit_ratio gauge\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_cache_hit_ratio 0.75\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE adrec_cache_lookup_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_cache_lookup_seconds_count 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE adrec_cache_fill_seconds histogram\n"),
            std::string::npos);
  CheckParseable(prom);

  const StatsReport report = BuildReport(snapshot);
  auto parsed = ParseJson(ExportJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().counters.at("cache.hits"), 9u);
  EXPECT_EQ(parsed.value().gauges.at("cache.hit_ratio"), 0.75);
  ASSERT_EQ(parsed.value().timers.count("cache.lookup_us"), 1u);
  EXPECT_EQ(parsed.value().timers.at("cache.lookup_us").count, 1u);
}

// The checkpoint saver's and WAL compactor's metric families (PR:
// --checkpoint-mode=delta): save counters get the adrec_ prefix and
// _total suffix, the delta-chain-length gauge keeps its raw value, the
// save/run timers expose as _seconds histograms, and raw names survive
// the JSON round-trip.
TEST(PrometheusExportTest, CheckpointMetricFamiliesExposeAndRoundTrip) {
  MetricRegistry registry;
  registry.GetCounter("checkpoint.saves")->Inc(4);
  registry.GetCounter("checkpoint.rebases")->Inc(1);
  registry.GetCounter("checkpoint.files_written")->Inc(12);
  registry.GetCounter("checkpoint.bytes_written")->Inc(65536);
  registry.GetGauge("checkpoint.delta_chain_len")->Set(3);
  registry.GetTimer("checkpoint.save_ms")->Record(7.5);
  registry.GetCounter("compact.runs")->Inc(2);
  registry.GetCounter("compact.segments_in")->Inc(6);
  registry.GetCounter("compact.segments_out")->Inc(2);
  registry.GetCounter("compact.records_dropped")->Inc(40);
  registry.GetCounter("compact.bytes_reclaimed")->Inc(2048);
  registry.GetTimer("compact.run_us")->Record(900.0);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string prom = ExportPrometheus(snapshot);
  EXPECT_NE(prom.find("# TYPE adrec_checkpoint_saves_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_checkpoint_saves_total 4\n"), std::string::npos);
  EXPECT_NE(prom.find("adrec_checkpoint_rebases_total 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_checkpoint_files_written_total 12\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_checkpoint_bytes_written_total 65536\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE adrec_checkpoint_delta_chain_len gauge\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_checkpoint_delta_chain_len 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE adrec_checkpoint_save_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_checkpoint_save_seconds_count 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_compact_runs_total 2\n"), std::string::npos);
  EXPECT_NE(prom.find("adrec_compact_records_dropped_total 40\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_compact_bytes_reclaimed_total 2048\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE adrec_compact_run_seconds histogram\n"),
            std::string::npos);
  CheckParseable(prom);

  const StatsReport report = BuildReport(snapshot);
  auto parsed = ParseJson(ExportJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().counters.at("checkpoint.saves"), 4u);
  EXPECT_EQ(parsed.value().counters.at("compact.records_dropped"), 40u);
  EXPECT_EQ(parsed.value().gauges.at("checkpoint.delta_chain_len"), 3.0);
  ASSERT_EQ(parsed.value().timers.count("checkpoint.save_ms"), 1u);
  EXPECT_EQ(parsed.value().timers.at("checkpoint.save_ms").count, 1u);
}

// The index's per-query work counters: every TopKAdsForTweet adds the
// postings its TA scan touched (tombstones included) and the ads it
// scored after the location/slot filters. They are counted per shard,
// summed by the merged snapshot the `stats` and `metrics` verbs serve,
// and exposed as _total counters.
TEST(PrometheusExportTest, IndexWorkCountersSumPerQueryIndexWork) {
  feed::WorkloadOptions opts;
  opts.seed = 77;
  opts.num_users = 12;
  opts.num_places = 8;
  opts.num_ads = 30;
  opts.days = 2;
  const feed::Workload workload = feed::GenerateWorkload(opts);
  core::ShardedEngine engine(workload.kb, workload.slots, /*shards=*/2);
  for (const feed::Ad& ad : workload.ads) ASSERT_TRUE(engine.InsertAd(ad).ok());
  for (const feed::FeedEvent& e : workload.MergedEvents()) engine.OnEvent(e);

  uint64_t scanned = 0;
  uint64_t candidates = 0;
  for (const feed::Tweet& t : workload.tweets) {
    (void)engine.TopKAdsForTweet(t, 3);
    const index::AdIndex& idx =
        engine.shard(engine.ShardOf(t.user)).ad_index();
    scanned += idx.last_postings_scanned();
    candidates += idx.last_candidates();
  }
  ASSERT_GT(candidates, 0u);
  EXPECT_LE(candidates, scanned);

  const MetricsSnapshot snapshot = engine.MergedMetrics();
  EXPECT_EQ(snapshot.counters.at("index.postings_scanned"), scanned);
  EXPECT_EQ(snapshot.counters.at("index.candidates"), candidates);

  const std::string prom = ExportPrometheus(snapshot);
  for (const auto& [family, value] :
       {std::pair{"adrec_index_postings_scanned_total", scanned},
        std::pair{"adrec_index_candidates_total", candidates}}) {
    const std::string name(family);
    EXPECT_NE(prom.find("# TYPE " + name + " counter\n"), std::string::npos);
    EXPECT_NE(prom.find(name + " " + std::to_string(value) + "\n"),
              std::string::npos);
  }
  CheckParseable(prom);

  const StatsReport report = BuildReport(snapshot);
  EXPECT_EQ(report.counters.at("index.postings_scanned"), scanned);
  EXPECT_EQ(report.counters.at("index.candidates"), candidates);
}

// The cache trace span names (cache.lookup, cache.fill, and the
// engine's cached-charge probe) follow the span-name grammar the trace
// exporters rely on: single token, no whitespace, no tabs.
TEST(PrometheusExportTest, CacheSpanNamesAreSingleCleanTokens) {
  for (const std::string name :
       {"cache.lookup", "cache.fill", "engine.topk_cached"}) {
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
    EXPECT_EQ(name.find('\t'), std::string::npos) << name;
    EXPECT_EQ(name.find('\n'), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace adrec::obs
