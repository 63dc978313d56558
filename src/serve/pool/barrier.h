#ifndef ADREC_SERVE_POOL_BARRIER_H_
#define ADREC_SERVE_POOL_BARRIER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace adrec::serve::pool {

/// Stop-the-world coordination for the rare verbs of serve::Server's
/// event-loop lanes (DESIGN.md §16): analyze, match, snapshot,
/// checkpoint, compact, promote, stats, metrics, conns. Instead of
/// per-verb fan-out/ack machinery, the originating lane parks EVERY lane
/// at a rendezvous; the last arriver executes the whole operation with
/// the server quiescent — every other lane is blocked inside Arrive,
/// holding no shard lock, so every shard, WAL stream and connection
/// table is race-free readable and writable — then all lanes resume
/// their event loops. Correctness of the rare path never depends on the
/// shard locks. With one lane, Run executes at once on the caller.
///
/// Arrival: Run bumps the generation and writes one byte to every other
/// registered lane's wake pipe (the one drain and socket adoption
/// write), so a lane asleep in poll(2) wakes; every lane calls Arrive
/// after each wakeup, which is one atomic load unless a barrier is
/// pending. A lane that is itself trying to Run while a barrier is
/// pending arrives at the pending one first (so two concurrent
/// originators serialize instead of deadlocking), and a lane that exits
/// its loop Deregisters so a barrier never waits on a thread that will
/// not come back.
class PoolBarrier {
 public:
  explicit PoolBarrier(size_t workers);

  /// Lane `w`'s wake pipe (write end). Set before the lanes start.
  void SetWakeFd(size_t w, int fd) { wake_fds_[w] = fd; }

  /// Executes `fn` with every registered lane stopped. Called on lane
  /// `self`'s event-loop thread; blocks until `fn` has run, possibly on
  /// another lane's thread.
  void Run(size_t self, std::function<void()> fn);

  /// Parks `self` in the pending barrier until it completes; returns at
  /// once when none is pending.
  void Arrive(size_t self);

  /// Permanently removes `self` from the rendezvous set (lane loop exit
  /// during drain). If a barrier is currently waiting only on `self`,
  /// the deregistering thread executes it — by then every other
  /// registered lane is parked, so the stop-the-world guarantee holds.
  void Deregister(size_t self);

 private:
  /// Runs fn_ and releases the generation. Caller holds lk.
  void CompleteLocked(std::unique_lock<std::mutex>& lk);
  /// Counts `self` into the active barrier if not yet counted; runs fn_
  /// when it is the last, else parks until the generation completes.
  /// Caller holds lk.
  void ArriveLocked(size_t self, std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable cv_;
  const size_t workers_;
  std::vector<int> wake_fds_;
  std::vector<bool> alive_;        ///< still registered
  std::vector<uint64_t> arrived_;  ///< generation each worker last joined
  size_t registered_ = 0;
  bool active_ = false;
  /// generation_ while a barrier is active, else 0: Arrive's fast path.
  std::atomic<uint64_t> pending_{0};
  uint64_t generation_ = 0;  ///< current (active_) or last barrier id
  uint64_t done_generation_ = 0;
  size_t arrivals_ = 0;
  std::function<void()> fn_;
};

}  // namespace adrec::serve::pool

#endif  // ADREC_SERVE_POOL_BARRIER_H_
