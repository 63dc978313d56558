#include "serve/pool/barrier.h"

#include <unistd.h>

#include "common/logging.h"

namespace adrec::serve::pool {

PoolBarrier::PoolBarrier(size_t workers)
    : workers_(workers),
      wake_fds_(workers, -1),
      alive_(workers, true),
      arrived_(workers, 0),
      registered_(workers) {}

void PoolBarrier::CompleteLocked(std::unique_lock<std::mutex>& lk) {
  // Every registered worker has arrived: the pool is quiescent. The
  // operation runs outside the lock (parked workers wait on
  // done_generation_, not the mutex), but nothing else can be running —
  // that is the whole guarantee.
  const uint64_t gen = generation_;
  std::function<void()> fn = std::move(fn_);
  fn_ = nullptr;
  lk.unlock();
  if (fn) fn();
  lk.lock();
  active_ = false;
  pending_.store(0, std::memory_order_relaxed);
  done_generation_ = gen;
  cv_.notify_all();
}

void PoolBarrier::ArriveLocked(size_t self,
                               std::unique_lock<std::mutex>& lk) {
  if (!active_ || !alive_[self]) return;
  const uint64_t gen = generation_;
  if (arrived_[self] != gen) {
    arrived_[self] = gen;
    ++arrivals_;
    if (arrivals_ == registered_) {
      CompleteLocked(lk);
      return;
    }
  }
  cv_.wait(lk, [&] { return done_generation_ >= gen; });
}

void PoolBarrier::Arrive(size_t self) {
  if (pending_.load(std::memory_order_acquire) == 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  ArriveLocked(self, lk);
}

void PoolBarrier::Run(size_t self, std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  ADREC_CHECK(alive_[self]);
  // Another originator's barrier is in flight: join it first — refusing
  // to arrive while waiting to claim would deadlock both.
  while (active_) ArriveLocked(self, lk);
  active_ = true;
  ++generation_;
  pending_.store(generation_, std::memory_order_release);
  arrivals_ = 0;
  fn_ = std::move(fn);
  for (size_t w = 0; w < workers_; ++w) {
    if (w == self || !alive_[w]) continue;
    const char b = 'b';
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[w], &b, 1);
  }
  ArriveLocked(self, lk);
}

void PoolBarrier::Deregister(size_t self) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!alive_[self]) return;
  alive_[self] = false;
  --registered_;
  // A barrier waiting only on this worker completes now, executed here:
  // every other registered worker is already parked, so the quiescence
  // guarantee is intact.
  if (active_ && arrived_[self] != generation_ && registered_ > 0 &&
      arrivals_ == registered_) {
    CompleteLocked(lk);
  }
}

}  // namespace adrec::serve::pool
