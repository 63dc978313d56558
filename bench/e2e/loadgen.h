#ifndef ADREC_BENCH_E2E_LOADGEN_H_
#define ADREC_BENCH_E2E_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload.h"

namespace adrec::e2e {

/// steady_clock nanoseconds.
int64_t NowNs();

/// What happened to one op.
struct OpRecord {
  enum class Status : uint8_t { kUnsent, kOk, kFailed, kInvalid };
  Status status = Status::kUnsent;
  int64_t sent_ns = 0;  // when the generator sent it
  int64_t done_ns = 0;  // when its reply was read
};

/// When each ad id may appear in a topk reply. Stamps come from the
/// connection threads; an id is flagged only when it provably could not
/// have been live while the query was in flight.
class AdLiveness {
 public:
  AdLiveness(size_t initial_ads, size_t total_ads);
  void PutSent(uint32_t ad, int64_t ns);
  void DeleteAcked(uint32_t ad, int64_t ns);
  /// False when `ad` was never put before `done_ns`, or its delete was
  /// acknowledged before `sent_ns`.
  bool MayAppear(uint32_t ad, int64_t sent_ns, int64_t done_ns) const;

 private:
  std::unique_ptr<std::atomic<int64_t>[]> put_sent_;
  std::unique_ptr<std::atomic<int64_t>[]> delete_acked_;
  size_t total_;
};

struct LoadResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;   // error replies, timeouts, transport errors
  uint64_t invalid = 0;  // replies that break the grammar or liveness
  int64_t last_done_ns = 0;
  std::string first_problem;
};

/// The load: two persistent connections to 127.0.0.1:`port`, each driven
/// from its own thread during a call, carrying op i on ops[i].conn.
/// Replies are read as they arrive and every one is checked. A call
/// drives ops [begin, end) and records op i in (*records)[i]; `records`
/// must be sized to the op vector.
class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, AdLiveness* liveness, uint32_t max_user);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: op i is due at start_ns + (i - begin) / rate and goes out
  /// then, whatever is still in flight. Returns once every reply is in.
  LoadResult Open(const std::vector<Op>& ops, size_t begin, size_t end,
                   double rate, int64_t start_ns,
                   std::vector<OpRecord>* records);

  /// Closed loop: each connection sends its next op as soon as fewer than
  /// `window` of its ops are in flight.
  LoadResult Closed(const std::vector<Op>& ops, size_t begin, size_t end,
                     size_t window, std::vector<OpRecord>* records);

 private:
  /// How a call sends ops: on a schedule when rate > 0, else by window.
  struct Mode {
    double rate = 0.0;
    int64_t start_ns = 0;
    size_t begin = 0;  // the op due at start_ns
    size_t window = 1;
  };
  class Connection;

  LoadResult Run(const std::vector<Op>& ops, size_t end, const Mode& mode,
                  std::vector<OpRecord>* records);

  std::vector<std::unique_ptr<Connection>> conns_;
};

/// The untimed seed run of a WAL workload: starts `adrecd` on the warm
/// data logging to `wal_dir`, takes a checkpoint of the warm state, logs
/// `inputs.seed_tail` over the wire and stops. A daemon restarted on a
/// copy of `wal_dir` recovers the checkpoint and replays the tail.
Status WriteSeedLog(const std::string& adrecd, const WorkloadSpec& spec,
                    const Inputs& inputs, const std::string& wal_dir,
                    const std::string& log_path);

}  // namespace adrec::e2e

#endif  // ADREC_BENCH_E2E_LOADGEN_H_
