#ifndef ADREC_BENCH_E2E_DAEMON_H_
#define ADREC_BENCH_E2E_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace adrec::e2e {

/// One adrecd child process. Start() spawns it on an ephemeral port,
/// reads the port from its `listening` line and times spawn-to-first-PONG.
/// The destructor stops it (SIGTERM, then SIGKILL after a grace period)
/// and reaps it; the child also dies with this process.
class Daemon {
 public:
  /// `log_path` receives the child's stderr and, once it is listening,
  /// the rest of its stdout.
  static Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& log_path);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  /// Seconds from spawn to the first PONG on a fresh connection.
  double setup_seconds() const { return setup_seconds_; }
  /// `key=<n>` from what the daemon printed before it listened (its
  /// recovery report), or NaN.
  double StartupField(const std::string& key) const;
  /// Peak resident set (VmHWM) in MiB, read from /proc.
  Result<double> PeakRssMb() const;
  /// CPU time the daemon's threads have run so far, in nanoseconds, summed
  /// over /proc/<pid>/task/*/schedstat. Time the host stole from the
  /// virtual CPU is not in it.
  Result<int64_t> CpuNs() const;
  /// SIGTERM and wait; fails unless the daemon drains and exits 0.
  Status Stop();

 private:
  Daemon() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double setup_seconds_ = 0.0;
  std::string startup_;
  std::string log_path_;
  std::thread drain_;  // copies stdout to the log after startup
};

/// Starts adrecd with `spec`'s flags on the generated inputs, its log at
/// `root`/adrecd-`name`.log. A WAL workload starts on its own copy of the
/// seed run's log, `root`/wal-`name`, with only the KB in --dir, so that
/// its set-up is recovery.
Result<std::unique_ptr<Daemon>> StartForWorkload(
    const std::string& binary, const WorkloadSpec& spec, const Inputs& in,
    const std::string& seed_wal, const std::string& root,
    const std::string& name, bool checkpoints);

}  // namespace adrec::e2e

#endif  // ADREC_BENCH_E2E_DAEMON_H_
