#ifndef ADREC_BENCH_E2E_WORKLOAD_H_
#define ADREC_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace adrec::e2e {

/// One wire operation of a workload's op stream.
enum class OpKind { kTopK, kTweet, kCheckIn, kAdPut, kAdDel, kMatch, kAnalyze };

std::string_view OpKindName(OpKind kind);
bool IsIngest(OpKind kind);  // tweet or checkin
bool IsChurn(OpKind kind);   // adput or addel

struct Op {
  OpKind kind = OpKind::kTopK;
  /// The exact wire command, without the LF terminator.
  std::string line;
  uint32_t user = 0;  // topk, tweet, checkin
  uint32_t ad = 0;    // adput, addel, match
  uint32_t k = 0;     // topk
  /// Which of the two load connections carries the op. The protocol
  /// orders requests only within a connection, so the adput and addel of
  /// one ad share one.
  uint8_t conn = 0;
};

/// A traffic mix plus the daemon configuration it runs against. The
/// shares of one mix sum to 1.
struct WorkloadSpec {
  std::string name;
  size_t users = 1000;
  double user_skew = 0.99;  // Zipf exponent over users
  size_t ads = 200;         // preloaded inventory
  size_t shards = 2;
  size_t workers = 2;
  size_t topk_cache = 0;    // --topk-cache entries; 0 = no cache
  bool wal = false;         // --wal-dir, --wal-sync=group, checkpoints
  double rate = 1000.0;     // open-loop ops per second
  /// Closed-loop ops per second of round. A fixed count, so that how much
  /// the loop ingests, and with it the state every later op sees, does
  /// not depend on how fast the daemon ran. Sized to take about a tenth
  /// of the round at peak.
  size_t closed_ops_per_s = 2500;
  double topk = 1.0;
  double tweet = 0.0;
  double checkin = 0.0;
  double churn = 0.0;       // adput / addel, alternating
  bool topk_with_time = false;  // topk carries <time> and <text>
  /// An analyze opens the warm-up and every open-loop segment.
  bool analyze_in_loop = false;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Logged records the untimed seed run writes after its checkpoint: the
/// tail the measured daemon replays on start.
inline constexpr size_t kRecoveryTailRecords = 20000;

/// A run's time plan: a warm-up, then `rounds` rounds that each run an
/// open-loop segment, a closed-loop one and a refresh. The traced run
/// replays the refreshes, the warm-up and the first segment of the same
/// plan, so both binaries draw the same op stream from a seed.
struct Plan {
  int rounds = 10;
  double warmup_s = 1.0;
  double open_s = 1.6;
  size_t warm_n = 0;    // open-loop ops of the warm-up
  size_t seg_n = 0;     // open-loop ops of one segment
  size_t closed_n = 0;  // closed-loop ops of one segment
};

/// Ten rounds in `seconds`, each 4/5 open loop and about 1/10 closed
/// loop, or three rounds of 1 s for a smoke run.
Plan MakePlan(const WorkloadSpec& spec, double seconds, bool smoke);

/// Everything a run feeds the daemon, derived from the workload, the seed
/// and the plan alone: the same triple gives the same files and ops.
struct Inputs {
  std::string data_dir;  // kb.tsv, ads.tsv, trace.tsv
  std::string kb_dir;    // kb.tsv only (the WAL workload's restart)
  /// Sent on schedule by the warm-up and the open-loop segments, in order.
  std::vector<Op> open_ops;
  /// Sent back to back by the closed-loop segments, in order.
  std::vector<Op> closed_ops;
  /// One refresh per round, `refresh_n` ops each, sent one at a time to
  /// a daemon that serves nothing else: ad churn, then the paper's
  /// periodic macro-phases 2 and 3 (analyze, then match ads to users).
  std::vector<Op> refresh_ops;
  size_t refresh_n = 0;
  /// WAL workload only: ingest the seed run logs after its checkpoint.
  std::vector<Op> seed_tail;
  /// Ad ids below this are preloaded; ids below total_ads may be put.
  size_t initial_ads = 0;
  size_t total_ads = 0;
};

/// Generates the files under `root`/data and `root`/kb and the op
/// streams for `plan`.
Result<Inputs> GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                              const Plan& plan, const std::string& root);

/// adrecd's flags for the workload. A WAL workload logs under `wal_dir`,
/// and checkpoints every 10 s when `checkpoints` is set.
std::vector<std::string> DaemonFlags(const WorkloadSpec& spec,
                                     const std::string& data_dir,
                                     const std::string& wal_dir,
                                     bool checkpoints);

}  // namespace adrec::e2e

#endif  // ADREC_BENCH_E2E_WORKLOAD_H_
