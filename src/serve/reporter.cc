#include "serve/reporter.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace adrec::serve {

namespace {

/// The generic one-line window summary: engine events/sec, serve cmds/sec
/// and the slowest per-verb p95 — whatever of those the snapshot carries.
void LogWindow(const WindowReport& report) {
  uint64_t events = 0;
  uint64_t cmds = 0;
  for (const auto& [name, delta] : report.counter_deltas) {
    if (name == "engine.tweets" || name == "engine.checkins") events += delta;
    if (StartsWith(name, "serve.cmd_")) cmds += delta;
  }
  std::string worst_timer = "-";
  double worst_p95 = 0.0;
  for (const auto& [name, stat] : report.timers) {
    if (stat.p95 > worst_p95) {
      worst_p95 = stat.p95;
      worst_timer = name;
    }
  }
  const double w = report.wall_seconds > 0.0 ? report.wall_seconds : 1.0;
  ADREC_LOG(kInfo) << StringFormat(
      "window %.1fs: %.0f events/s, %.0f cmds/s, worst p95 %s=%.1f",
      report.wall_seconds, static_cast<double>(events) / w,
      static_cast<double>(cmds) / w, worst_timer.c_str(), worst_p95);
}

}  // namespace

PeriodicReporter::PeriodicReporter(SnapshotFn snapshot_fn,
                                   double interval_seconds, Sink sink)
    : snapshot_fn_(std::move(snapshot_fn)),
      interval_seconds_(interval_seconds),
      sink_(std::move(sink)),
      last_(snapshot_fn_()),
      last_time_(std::chrono::steady_clock::now()) {}

bool PeriodicReporter::Due() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_time_)
             .count() >= interval_seconds_;
}

bool PeriodicReporter::TickIfDue() {
  if (!Due()) return false;
  Tick();
  return true;
}

WindowReport PeriodicReporter::Tick() {
  const auto now = std::chrono::steady_clock::now();
  obs::MetricsSnapshot current = snapshot_fn_();

  WindowReport report;
  report.wall_seconds =
      std::chrono::duration<double>(now - last_time_).count();
  for (const auto& [name, value] : current.counters) {
    const auto it = last_.counters.find(name);
    const uint64_t before = it == last_.counters.end() ? 0 : it->second;
    const uint64_t delta = value >= before ? value - before : 0;
    report.counter_deltas[name] = delta;
    report.rates[name] = report.wall_seconds > 0.0
                             ? static_cast<double>(delta) /
                                   report.wall_seconds
                             : 0.0;
  }
  for (const auto& [name, hist] : current.timers) {
    const auto it = last_.timers.find(name);
    const Histogram window =
        it == last_.timers.end() ? hist : hist.DeltaSince(it->second);
    if (window.count() == 0) continue;
    obs::TimerStat stat;
    stat.count = window.count();
    stat.mean = window.Mean();
    stat.p50 = window.Quantile(0.50);
    stat.p95 = window.Quantile(0.95);
    stat.p99 = window.Quantile(0.99);
    stat.min = window.min();
    stat.max = window.max();
    report.timers.emplace(name, stat);
  }

  last_ = std::move(current);
  last_time_ = now;
  if (sink_) {
    sink_(report);
  } else {
    LogWindow(report);
  }
  return report;
}

}  // namespace adrec::serve
