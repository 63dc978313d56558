#ifndef ADREC_BENCH_E2E_COMMON_H_
#define ADREC_BENCH_E2E_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace adrec::e2e {

/// The command line both binaries take:
///   --workload=NAME --seed=N --seconds=S --adrecd=PATH --work=DIR
///   [--out=DIR] [--smoke]
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  std::string adrecd;
  std::string work;  // scratch directories are made (and removed) here
  std::string out;   // where the traced run leaves its trace
  bool smoke = false;
};

/// False (after printing usage) on a malformed command line.
bool ParseRunArgs(int argc, char** argv, const char* tool, RunArgs* args);

/// A run that cannot go on. Thrown rather than exiting on the spot so the
/// stack unwinds: every daemon is stopped and reaped, and every scratch
/// directory removed.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};
[[noreturn]] void Die(const std::string& what);

/// Returns body(), or prints "<tool>: <what>" to stderr and returns 2 when
/// it throws Fatal.
int RunMain(const char* tool, const std::function<int()>& body);

/// Linear interpolation between closest ranks; NaN for no samples.
double Quantile(std::vector<double> v, double q);

/// The `stats` counters and gauges of the adrecd at `port`, by name.
std::map<std::string, double> FetchStats(uint16_t port);

/// One reported metric.
struct Row {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};
void PrintRows(const char* title, const std::vector<Row>& rows);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Row>& metrics);

/// A per-run scratch directory under `work`, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& work, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace adrec::e2e

#endif  // ADREC_BENCH_E2E_COMMON_H_
