// adrec_e2e — the gated end-to-end run of the adrec-e2e benchmark.
//
//   adrec_e2e --workload=NAME --seed=N --seconds=S --adrecd=PATH
//             --work=DIR [--smoke]
//
// Generates the workload's inputs from the seed and spawns adrecd on them
// once per round and twice more; set-up time is the median
// spawn-to-first-PONG. The "load" daemon serves the load: two threads
// with one persistent connection each drive it over loopback, a 1 s
// warm-up and then ten rounds that each run an open-loop segment at the
// workload's rate (4/5 of the round) and a pipelined closed-loop segment
// of a fixed op count for peak throughput. The "refresh" daemon serves
// only the refresh that follows, one op at a time on the preloaded state:
// ad churn, an analysis, matches of ads to users. A round ends with a
// daemon that only times set-up. S seconds is the total round time;
// --smoke runs three 1 s rounds. A load metric is the median over rounds
// of the round's value, a refresh metric is over all the run's refresh
// ops: both spread their samples over the run, which keeps seconds-long
// host noise out of them. Every reply is parsed and checked. The last
// stdout line is the JSON result; the lines before it are the table,
// ungated numbers included.
//
// This binary reaches adrecd only through its flags, the wire protocol,
// serve::Client and the feed generators, so a refactor behind the wire
// is measured by unchanged code.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "loadgen.h"
#include "workload.h"

namespace e2e = adrec::e2e;
namespace fs = std::filesystem;

namespace {

constexpr const char* kTool = "adrec_e2e";
constexpr double kMaxLatenessP50Us = 25.0;
/// Requests each connection keeps in flight in the closed loop: enough to
/// keep every worker busy, so the loop measures capacity, not round trips.
constexpr size_t kClosedWindow = 8;

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

/// One metric's samples, per round.
struct Series {
  explicit Series(int rounds) : rounds(rounds) {}
  std::vector<std::vector<double>> rounds;

  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& r : rounds) all.insert(all.end(), r.begin(), r.end());
    return all;
  }
  std::vector<double> PerRound(double q) const {
    std::vector<double> out;
    for (const auto& r : rounds) out.push_back(e2e::Quantile(r, q));
    return out;
  }
  /// Median over the rounds that have samples of the per-round quantile.
  double Q(double q) const {
    std::vector<double> per_round;
    for (double v : PerRound(q)) {
      if (!std::isnan(v)) per_round.push_back(v);
    }
    return e2e::Quantile(per_round, 0.5);
  }
  /// The quantile of all samples pooled: the tails, which need more
  /// samples than one round has.
  double Pooled(double q) const { return e2e::Quantile(All(), q); }
  std::string Note(double q) const {
    std::string s = "n=" + std::to_string(All().size()) + " rounds:";
    for (double v : PerRound(q)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.1f", v);
      s += buf;
    }
    return s;
  }
  std::string PooledNote(double q) const {
    const size_t n = All().size();
    return "n=" + std::to_string(n) + ", " +
           std::to_string(static_cast<size_t>(n * (1 - q))) + " beyond";
  }
};

}  // namespace

int Run(int argc, char** argv) {
  e2e::RunArgs args;
  if (!e2e::ParseRunArgs(argc, argv, kTool, &args)) return 2;
  const e2e::WorkloadSpec* spec = e2e::FindWorkload(args.workload);
  if (spec == nullptr) e2e::Die("unknown workload '" + args.workload + "'");
  const e2e::Plan plan = e2e::MakePlan(*spec, args.seconds, args.smoke);

  const e2e::ScratchDir scratch(
      args.work, spec->name + "-" + std::to_string(args.seed));
  const std::string& root = scratch.path();
  auto generated = e2e::GenerateInputs(*spec, args.seed, plan, root);
  if (!generated.ok()) e2e::Die(generated.status().ToString());
  const e2e::Inputs& in = generated.value();
  const uint32_t max_user = static_cast<uint32_t>(spec->users);

  const std::string seed_wal = root + "/seed-wal";
  if (spec->wal) {
    if (auto st = e2e::WriteSeedLog(args.adrecd, *spec, in, seed_wal,
                                    root + "/seed.log");
        !st.ok()) {
      e2e::Die("seed run: " + st.ToString());
    }
  }

  // Every daemon is timed from spawn to first PONG.
  std::vector<double> setups;
  auto spawn = [&](const std::string& name, bool checkpoints) {
    auto started = e2e::StartForWorkload(args.adrecd, *spec, in, seed_wal,
                                         root, name, checkpoints);
    if (!started.ok()) e2e::Die(started.status().ToString());
    setups.push_back(started.value()->setup_seconds());
    return std::move(started).value();
  };
  // Besides the two that serve, one daemon per round only times set-up,
  // so set-up is sampled across the run like the load.
  auto time_setup = [&](int round) {
    if (auto st = spawn("setup-" + std::to_string(round), false)->Stop();
        !st.ok()) {
      e2e::Die(st.ToString());
    }
  };
  const std::unique_ptr<e2e::Daemon> refresher = spawn("refresh", false);
  const std::unique_ptr<e2e::Daemon> daemon = spawn("load", true);
  const uint16_t port = daemon->port();
  e2e::AdLiveness refresh_live(in.initial_ads, in.total_ads);
  e2e::LoadGenerator refresh(refresher->port(), &refresh_live, max_user);

  e2e::AdLiveness live(in.initial_ads, in.total_ads);
  e2e::LoadGenerator load(port, &live, max_user);
  std::vector<e2e::OpRecord> open_rec(in.open_ops.size());
  std::vector<e2e::OpRecord> closed_rec(in.closed_ops.size());
  std::vector<e2e::OpRecord> refresh_rec(in.refresh_ops.size());
  uint64_t attempted = 0, failed = 0, invalid = 0;
  std::string problem;
  auto account = [&](const e2e::LoadResult& r) {
    attempted += r.sent;
    failed += r.failed;
    invalid += r.invalid;
    if (problem.empty()) problem = r.first_problem;
  };
  account(load.Open(in.open_ops, 0, plan.warm_n, spec->rate,
                    e2e::NowNs() + 1'000'000, &open_rec));
  const auto stats_before = e2e::FetchStats(port);

  // Open-loop latency runs from each op's scheduled send, so a stall also
  // charges the ops queued behind it.
  Series topk(plan.rounds), ingest(plan.rounds), churn(plan.rounds),
      analyze(plan.rounds), late(plan.rounds), peak(plan.rounds),
      refresh_churn(plan.rounds), refresh_match(plan.rounds),
      refresh_analyze(plan.rounds), cpu(plan.rounds);
  auto cpu_ns = [&] {
    auto ns = daemon->CpuNs();
    if (!ns.ok()) e2e::Die(ns.status().ToString());
    return static_cast<double>(ns.value());
  };
  for (int r = 0; r < plan.rounds; ++r) {
    const size_t begin = plan.warm_n + r * plan.seg_n;
    const int64_t start = e2e::NowNs() + 1'000'000;
    const double cpu_before = cpu_ns();
    const e2e::LoadResult o = load.Open(in.open_ops, begin,
                                        begin + plan.seg_n, spec->rate, start,
                                        &open_rec);
    account(o);
    cpu.rounds[r].push_back((cpu_ns() - cpu_before) / 1e3 /
                            static_cast<double>(o.ok));
    for (size_t i = begin; i < begin + plan.seg_n; ++i) {
      const e2e::OpRecord& rec = open_rec[i];
      if (rec.status != e2e::OpRecord::Status::kOk) continue;
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(i - begin) *
                                       1e9 / spec->rate);
      const double us = static_cast<double>(rec.done_ns - due) / 1e3;
      late.rounds[r].push_back(static_cast<double>(rec.sent_ns - due) / 1e3);
      const e2e::OpKind kind = in.open_ops[i].kind;
      if (kind == e2e::OpKind::kTopK) topk.rounds[r].push_back(us);
      if (e2e::IsIngest(kind)) ingest.rounds[r].push_back(us);
      if (e2e::IsChurn(kind)) churn.rounds[r].push_back(us);
      if (kind == e2e::OpKind::kAnalyze) {
        analyze.rounds[r].push_back(us / 1e3);
      }
    }

    const int64_t closed_start = e2e::NowNs();
    const e2e::LoadResult c =
        load.Closed(in.closed_ops, r * plan.closed_n, (r + 1) * plan.closed_n,
                    kClosedWindow, &closed_rec);
    account(c);
    peak.rounds[r].push_back(static_cast<double>(c.ok) * 1e9 /
                             static_cast<double>(c.last_done_ns -
                                                 closed_start));

    // The refresh, on a daemon of its own that ingests nothing: the
    // preloaded state, whatever the load has ingested. One op at a time,
    // each timed from its send.
    account(refresh.Closed(in.refresh_ops, r * in.refresh_n,
                           (r + 1) * in.refresh_n, 1, &refresh_rec));
    for (size_t i = r * in.refresh_n; i < (r + 1) * in.refresh_n; ++i) {
      const e2e::OpRecord& rec = refresh_rec[i];
      if (rec.status != e2e::OpRecord::Status::kOk) continue;
      const double us = static_cast<double>(rec.done_ns - rec.sent_ns) / 1e3;
      const e2e::OpKind kind = in.refresh_ops[i].kind;
      if (e2e::IsChurn(kind)) refresh_churn.rounds[r].push_back(us);
      if (kind == e2e::OpKind::kMatch) refresh_match.rounds[r].push_back(us);
      if (kind == e2e::OpKind::kAnalyze) {
        refresh_analyze.rounds[r].push_back(us / 1e3);
      }
    }
    time_setup(r);
  }
  const auto stats_after = e2e::FetchStats(port);
  if (auto st = refresher->Stop(); !st.ok()) e2e::Die(st.ToString());

  auto rss = daemon->PeakRssMb();
  if (!rss.ok()) e2e::Die(rss.status().ToString());
  const double replayed = daemon->StartupField("live_replayed");
  if (auto st = daemon->Stop(); !st.ok()) e2e::Die(st.ToString());
  const double disk_mb =
      spec->wal ? static_cast<double>(DirBytes(root + "/wal-load")) / (1 << 20)
                : NAN;

  std::string spawns;
  for (double s : setups) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    spawns += buf;
  }
  std::printf(
      "adrec-e2e %s seed=%llu: %.2f s warm-up, then %d rounds of %.2f s "
      "open loop at %.0f ops/s, %zu ops closed loop (window %zu per "
      "connection) and a refresh on a second daemon; 2 connections\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed),
      plan.warmup_s, plan.rounds, plan.open_s, spec->rate, plan.closed_n,
      kClosedWindow);
  const std::vector<e2e::Row> gated = {
      {"setup_s", e2e::Quantile(setups, 0.5), "s", "spawns:" + spawns},
      {"topk_p50_us", topk.Q(0.50), "us", topk.Note(0.50)},
      {"ingest_p50_us", ingest.Q(0.50), "us", ingest.Note(0.50)},
      {"adchurn_p50_us", refresh_churn.Pooled(0.50), "us",
       "refresh " + refresh_churn.Note(0.50)},
      {"rss_mb", rss.value(), "MB", "adrecd VmHWM"},
  };
  e2e::PrintRows("gated:", gated);

  auto delta = [&](const std::string& name) {
    const auto a = stats_after.find(name);
    const auto b = stats_before.find(name);
    return (a == stats_after.end() ? 0 : a->second) -
           (b == stats_before.end() ? 0 : b->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : NAN; };
  const double served = delta("serve.cmd_topk") + delta("serve.cmd_tweet") +
                        delta("serve.cmd_checkin");
  // Ungated: too noisy between runs on a shared host to gate (see
  // README.md), or not exercised by every workload.
  const std::vector<e2e::Row> extra = {
      {"peak_ops_s", peak.Q(0.5), "1/s", "closed loop " + peak.Note(0.5)},
      {"cpu_us_per_op", cpu.Q(0.5), "us",
       "adrecd CPU time per open-loop op " + cpu.Note(0.5)},
      {"topk_p95_us", topk.Q(0.95), "us", topk.Note(0.95)},
      {"ingest_p95_us", ingest.Q(0.95), "us", ingest.Note(0.95)},
      {"adchurn_p95_us", refresh_churn.Pooled(0.95), "us",
       "refresh " + refresh_churn.PooledNote(0.95)},
      {"match_p50_us", refresh_match.Pooled(0.50), "us",
       "refresh " + refresh_match.Note(0.50)},
      {"analyze_ms", refresh_analyze.Pooled(0.50), "ms",
       "refresh " + refresh_analyze.Note(0.50)},
      {"topk_p99_us", topk.Pooled(0.99), "us", topk.PooledNote(0.99)},
      {"topk_p99.9_us", topk.Pooled(0.999), "us", topk.PooledNote(0.999)},
      {"ingest_p99_us", ingest.Pooled(0.99), "us", ingest.PooledNote(0.99)},
      {"ingest_p99.9_us", ingest.Pooled(0.999), "us",
       ingest.PooledNote(0.999)},
      {"adchurn_p99_us", refresh_churn.Pooled(0.99), "us",
       "refresh " + refresh_churn.PooledNote(0.99)},
      {"match_p95_us", refresh_match.Pooled(0.95), "us",
       "refresh " + refresh_match.PooledNote(0.95)},
      {"mix.adchurn_p50_us", churn.Pooled(0.50), "us",
       "open loop " + churn.PooledNote(0.5)},
      {"mix.adchurn_p95_us", churn.Pooled(0.95), "us",
       "open loop " + churn.PooledNote(0.95)},
      {"mix.analyze_ms", analyze.Pooled(0.50), "ms",
       "open loop " + analyze.PooledNote(0.5)},
      {"disk_mb", disk_mb, "MB", "WAL + checkpoints after the run"},
      {"fail_ratio",
       attempted ? static_cast<double>(failed) / attempted : NAN, "ratio",
       std::to_string(failed) + " of " + std::to_string(attempted)},
      {"gen.late_p50_us", late.Q(0.50), "us", late.Note(0.50)},
      {"gen.late_p99_us", late.Q(0.99), "us", late.Note(0.99)},
      {"serve.forwarded_per_op", ratio(delta("serve.pool_forwarded"), served),
       "ratio", "stats over the rounds"},
      {"serve.sheds", delta("serve.sheds"), "count", "stats over the rounds"},
      {"cache.hit_ratio",
       ratio(delta("cache.hits"), delta("cache.hits") + delta("cache.misses")),
       "ratio", "stats over the rounds"},
      {"wal.records_per_fsync", ratio(delta("wal.appends"), delta("wal.fsyncs")),
       "ratio", "stats over the rounds"},
      {"recovery.records_replayed", replayed, "count",
       "daemon startup report"},
  };
  e2e::PrintRows("ungated (nan: the workload does not exercise it):", extra);
  if (!problem.empty()) std::printf("first problem: %s\n", problem.c_str());

  for (const e2e::Row& r : gated) {
    if (!std::isfinite(r.value) || r.value <= 0) {
      e2e::Die("gated metric " + r.name + " was not measured");
    }
  }
  const double late_p50 = late.Q(0.50);
  if (!(late_p50 <= kMaxLatenessP50Us)) {
    std::fprintf(stderr,
                 "%s: run rejected: generator lateness p50 %.1f us exceeds "
                 "%.0f us\n",
                 kTool, late_p50, kMaxLatenessP50Us);
    return 3;
  }
  std::printf("%s\n",
              e2e::ResultJson(invalid == 0, attempted, failed, gated).c_str());
  return invalid == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return e2e::RunMain(kTool, [&] { return Run(argc, argv); });
}
