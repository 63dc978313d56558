#ifndef ADREC_SERVE_REPORTER_H_
#define ADREC_SERVE_REPORTER_H_

#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "obs/metrics.h"
#include "obs/stats_export.h"

namespace adrec::serve {

/// One reporting window: what changed between two metric snapshots.
/// Long-running deployments watch these deltas, not cumulative totals —
/// a cumulative events/sec flattens toward the lifetime mean and hides
/// a stall; the window figure shows it immediately.
struct WindowReport {
  /// Wall length of the window in seconds.
  double wall_seconds = 0.0;
  /// Counter increments inside the window.
  std::map<std::string, uint64_t> counter_deltas;
  /// counter_deltas / wall_seconds.
  std::map<std::string, double> rates;
  /// Window-only latency distributions (Histogram::DeltaSince), for
  /// counters' timer siblings — p95 of *this* window, not of the
  /// process lifetime. Timers with no window samples are omitted.
  std::map<std::string, obs::TimerStat> timers;
};

/// Emits per-interval deltas from any snapshot source (a Server's merged
/// view, an engine's registry, a replayer's harness registry). Cumulative
/// metrics are never reset: windows are formed by counter subtraction and
/// Histogram::DeltaSince against the previous snapshot.
///
/// Not a thread: the owner calls TickIfDue() from whatever loop it
/// already runs (the daemon's poll loop, a replay progress callback), so
/// the reporter adds no concurrency of its own.
class PeriodicReporter {
 public:
  using SnapshotFn = std::function<obs::MetricsSnapshot()>;
  using Sink = std::function<void(const WindowReport&)>;

  /// `interval_seconds` is the cadence TickIfDue honours. An empty sink
  /// logs one INFO summary line per window (events/sec, cmds/sec, the
  /// largest per-verb p95).
  PeriodicReporter(SnapshotFn snapshot_fn, double interval_seconds,
                   Sink sink = {});

  /// True once the interval has elapsed since the last window closed.
  bool Due() const;

  /// Closes the window and reports if the interval has elapsed; returns
  /// true when a report was emitted.
  bool TickIfDue();

  /// Unconditionally closes the current window and returns the report
  /// (also delivered to the sink).
  WindowReport Tick();

  double interval_seconds() const { return interval_seconds_; }

 private:
  SnapshotFn snapshot_fn_;
  double interval_seconds_;
  Sink sink_;
  obs::MetricsSnapshot last_;
  std::chrono::steady_clock::time_point last_time_;
};

}  // namespace adrec::serve

#endif  // ADREC_SERVE_REPORTER_H_
