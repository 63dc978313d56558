#ifndef ADREC_OBS_TRACE_H_
#define ADREC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"

namespace adrec::obs {

/// Request-scoped tracing and the flight recorder (DESIGN.md §13).
///
/// Every request entering the daemon (and every replica-applied frame)
/// gets a trace: a root duration plus a tree of stage spans recorded by
/// RAII probes as the request traverses serve dispatch → engine stages →
/// the WAL append/commit wave → replica apply. Spans buffer in a
/// TraceBuilder owned by the event loop (no allocation, no locks on the
/// hot path); when the request's durability barrier resolves, the
/// completed TraceRecord is pushed into fixed-size lock-free rings (the
/// flight recorder) under a tail-based retention policy: error/shed
/// traces and traces slower than a threshold are always pinned, the rest
/// are sampled 1-in-N. Readers (the `trace` / `slow` admin verbs) snapshot
/// the rings from any thread without stopping the writer.

/// Spans per trace. A request touches well under half of this (parse +
/// dispatch + 2-3 engine stages + wal append + commit wave; `analyze`
/// adds four sub-phases); overflowing spans are counted and dropped, the
/// trace itself survives.
inline constexpr size_t kTraceMaxSpans = 24;
/// Captured prefix of the request line (arguments for forensics).
inline constexpr size_t kTraceDetailBytes = 88;
/// Captured prefix of a refusal/error reason.
inline constexpr size_t kTraceReasonBytes = 48;

/// How the request ended — the tail-sampling signal. Everything except
/// kOk pins the trace into both rings.
enum class TraceOutcome : uint32_t {
  kOk = 0,
  /// CLIENT_ERROR / SERVER_ERROR (parse failure, engine failure, wal
  /// append failure).
  kError = 1,
  /// Refused with `SERVER_ERROR busy` (load shedding).
  kShed = 2,
  /// Write verb refused by a read-only follower.
  kReadonly = 3,
};

std::string_view TraceOutcomeName(TraceOutcome outcome);

/// One stage span. `name` must be a string literal (static storage): the
/// record is memcpy'd through the lock-free ring, so the pointer must
/// stay valid for the process lifetime.
struct SpanRecord {
  const char* name = nullptr;
  /// 1-based index of the parent span within the trace; 0 = child of the
  /// trace root.
  uint32_t parent = 0;
  /// Start offset from the trace root, nanoseconds.
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

/// One completed trace: a fixed-size POD so the flight recorder can
/// publish it with word stores instead of pointers (see TraceRing).
struct TraceRecord {
  /// Monotonically increasing per collector; 0 marks an empty ring slot.
  uint64_t trace_id = 0;
  /// Wall-clock start (microseconds since the unix epoch) — anchors the
  /// steady-clock span offsets for human output.
  int64_t wall_start_us = 0;
  /// Root duration: trace start to Finish (for write verbs that is after
  /// the commit wave — the client-observable latency).
  uint64_t dur_ns = 0;
  TraceOutcome outcome = TraceOutcome::kOk;
  uint32_t num_spans = 0;
  /// Spans dropped because the trace was full (kTraceMaxSpans).
  uint32_t spans_dropped = 0;
  /// Worker that served the request: its lane + 1 (DESIGN.md §16), at
  /// every worker count. A server never stamps 0; 0 marks a trace no
  /// lane served (a follower's replica apply).
  uint32_t worker = 0;
  /// The request line (truncated), NUL-terminated.
  char detail[kTraceDetailBytes] = {};
  /// Refusal/error reason for outcome != kOk (truncated), NUL-terminated.
  char reason[kTraceReasonBytes] = {};
  SpanRecord spans[kTraceMaxSpans] = {};
};
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord crosses the ring as raw words");

/// Accumulates one in-flight trace. Owned and driven by a single thread
/// (the event loop); the only cross-thread traffic is the final
/// TraceRecord pushed into the collector's rings.
class TraceBuilder {
 public:
  /// Arms the builder: records the clocks and captures the request line.
  void Start(uint64_t trace_id, std::string_view detail);
  bool active() const { return rec_.trace_id != 0; }
  uint64_t trace_id() const { return rec_.trace_id; }

  /// Opens a span as a child of the innermost still-open span. Returns an
  /// opaque token for EndSpan; 0 when inactive or full (EndSpan(0) is a
  /// no-op, so probes need not check).
  uint32_t StartSpan(const char* name);
  void EndSpan(uint32_t token);

  /// Records an already-measured interval (the group-commit wave, which
  /// is shared by every write of the batch and only known after the
  /// fact; analysis sub-phases timed inside the TFCA pipeline). Returns
  /// the span's token, usable as `parent` for further AddSpans. A zero
  /// `parent` nests under the innermost open span, like StartSpan.
  uint32_t AddSpan(const char* name,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end,
                   uint32_t parent = 0);

  void SetOutcome(TraceOutcome outcome) { rec_.outcome = outcome; }
  TraceOutcome outcome() const { return rec_.outcome; }
  void SetReason(std::string_view reason);
  /// Stamps the serving worker (lane + 1).
  void SetWorker(uint32_t worker) { rec_.worker = worker; }

  /// Stamps the root duration (idempotent close; the collector calls it).
  void Close();
  const TraceRecord& record() const { return rec_; }
  /// Disarms and clears, making the builder reusable.
  void Reset();

 private:
  uint64_t NowRelNs() const;
  /// Clears only the logical fields (ids, counts, terminators) — every
  /// reader is bounded by num_spans and the C-string terminators, so
  /// zeroing the whole ~1KB record three times per request (Start,
  /// Finish, pool Release) would be pure memset tax on the hot path.
  void ClearRecord();

  TraceRecord rec_{};
  std::chrono::steady_clock::time_point t0_{};
  /// Start in fast-clock ticks (TSC on x86; see NowRelNs) — the span
  /// clock. t0_ stays the anchor for AddSpan's external time_points.
  uint64_t t0_ticks_ = 0;
  /// Tokens of currently-open spans, innermost last (parent chain).
  uint32_t open_stack_[kTraceMaxSpans] = {};
  uint32_t open_depth_ = 0;
  bool closed_ = false;
};

/// The builder the current thread is tracing into, or nullptr. Lets deep
/// layers (engine stages) attach spans without threading a context
/// through every signature: the dispatcher sets it for the duration of
/// the request, stage probes read it. Costs one TLS load when tracing is
/// off.
TraceBuilder* ActiveTrace();
void SetActiveTrace(TraceBuilder* builder);

/// Scoped ActiveTrace set/restore (restores the previous builder, so
/// nested scopes — replica apply inside an event loop wave — compose).
class ScopedActiveTrace {
 public:
  explicit ScopedActiveTrace(TraceBuilder* builder) : prev_(ActiveTrace()) {
    SetActiveTrace(builder);
  }
  ~ScopedActiveTrace() { SetActiveTrace(prev_); }
  ScopedActiveTrace(const ScopedActiveTrace&) = delete;
  ScopedActiveTrace& operator=(const ScopedActiveTrace&) = delete;

 private:
  TraceBuilder* prev_;
};

/// RAII span on the calling thread's active trace. `name` must be a
/// string literal. Free when no trace is active (one TLS load, no clock).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : builder_(ActiveTrace()) {
    if (builder_ != nullptr) token_ = builder_->StartSpan(name);
  }
  ~TraceSpan() {
    if (builder_ != nullptr) builder_->EndSpan(token_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuilder* builder_;
  uint32_t token_ = 0;
};

/// Combined stage probe: a ScopedTimer (aggregate histogram, disabled by
/// a null timer) plus a TraceSpan (this request's trace, disabled when
/// none is active). The engine's stage instrumentation uses this so one
/// declaration feeds both views.
class StageSpan {
 public:
  StageSpan(Timer* timer, const char* name) : timer_(timer), span_(name) {}

 private:
  ScopedTimer timer_;
  TraceSpan span_;
};

/// A fixed-size lock-free MPSC+reader ring of TraceRecords: the flight
/// recorder's storage. Writers claim slots round-robin with one atomic
/// ticket and publish the record as relaxed word stores bracketed by a
/// per-slot seqlock (odd = mid-write); readers snapshot optimistically
/// and discard slots whose sequence moved. A writer that catches a slot
/// mid-write (the ring lapped itself under extreme load) drops the
/// record rather than wait — losing one trace beats stalling the event
/// loop. Capacity 0 disables the ring entirely.
class TraceRing {
 public:
  explicit TraceRing(size_t slots);

  bool enabled() const { return nslots_ > 0; }
  size_t capacity() const { return nslots_; }

  /// Publishes a copy of `rec`. Lock-free, wait-free, ~a memcpy.
  void Add(const TraceRecord& rec);

  /// Consistent copies of every valid slot, ascending trace_id (oldest
  /// first). Safe from any thread, concurrent with writers.
  std::vector<TraceRecord> Snapshot() const;

  /// Records dropped on writer collision (ring lapped mid-write).
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kWordsPerSlot =
      (sizeof(TraceRecord) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  struct Slot {
    /// Seqlock: even = stable, odd = write in progress. Starts 0; a slot
    /// is valid once it reaches 2.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWordsPerSlot] = {};
  };

  size_t nslots_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> tickets_{0};
  mutable std::atomic<uint64_t> dropped_{0};
};

struct TraceCollectorOptions {
  /// Slots in the recent-traces ring; 0 disables tracing entirely (the
  /// dispatcher skips building traces — the "compiled in, ring disabled"
  /// baseline of bench_trace).
  size_t ring_slots = 512;
  /// Slots in the slow/error ring (the `slow` verb's log).
  size_t slow_slots = 128;
  /// Tail-based pin threshold: a trace at least this slow (microseconds)
  /// is retained in both rings regardless of sampling.
  double slow_us = 10'000.0;
  /// Of the OK-and-fast traces, keep 1 in this many (<= 1 keeps all).
  /// Error/shed/readonly and slow traces are always kept.
  uint64_t sample_every = 16;
};

/// Owns the flight-recorder rings and the tail-based retention policy.
/// Thread-safe: id allocation and Finish are lock-free, snapshots are
/// concurrent-safe.
///
/// Exported metrics (`trace.*`, via metrics()): traces_started,
/// traces_sampled, traces_discarded, traces_pinned_slow,
/// traces_pinned_error counters; ring_dropped counter (writer
/// collisions).
class TraceCollector {
 public:
  explicit TraceCollector(TraceCollectorOptions options = {});

  /// False when ring_slots == 0: callers skip trace construction.
  bool enabled() const { return ring_.enabled(); }
  const TraceCollectorOptions& options() const { return options_; }

  uint64_t NextTraceId();

  /// Closes the builder's trace and applies retention: outcome != kOk →
  /// pinned into both rings; dur >= slow_us → pinned into both rings;
  /// else sampled 1-in-sample_every into the recent ring. Resets the
  /// builder for reuse. No-op on an inactive builder.
  void Finish(TraceBuilder* builder);

  std::vector<TraceRecord> Recent() const { return ring_.Snapshot(); }
  std::vector<TraceRecord> Slow() const { return slow_.Snapshot(); }

  const MetricRegistry& metrics() const;

 private:
  const TraceCollectorOptions options_;
  TraceRing ring_;
  TraceRing slow_;
  std::atomic<uint64_t> next_id_{1};

  MetricRegistry metrics_;
  Counter* ctr_started_;
  Counter* ctr_sampled_;
  Counter* ctr_discarded_;
  Counter* ctr_pinned_slow_;
  Counter* ctr_pinned_error_;
  Counter* ctr_ring_dropped_;
};

/// A reusable pool of TraceBuilders for a single-threaded owner: the
/// event loop keeps several traces in flight (one per write verb of a
/// wave awaiting the commit barrier) and recycles the ~1KB builders
/// instead of allocating per request.
class TraceBuilderPool {
 public:
  std::unique_ptr<TraceBuilder> Acquire();
  /// Returns a builder (reset) to the pool.
  void Release(std::unique_ptr<TraceBuilder> builder);

 private:
  std::vector<std::unique_ptr<TraceBuilder>> free_;
};

/// TSV export, one trace per record group:
///   TRACE <id> <wall_start_us> <dur_us> <outcome> <spans> <worker> <reason>
///         <detail>
///   SPAN <id> <index> <parent> <name> <start_us> <dur_us>
/// Fields are TAB-separated; <detail> is the trailing field (it may
/// itself contain tabs — it is the raw request line); <reason> has tabs
/// replaced and is `-` when empty; <worker> is the serving worker id
/// (lane + 1; 0 = no lane, a follower's replica apply).
std::string ExportTracesTsv(const std::vector<TraceRecord>& traces);

/// Chrome trace-event JSON ("X" complete events, one tid per trace),
/// loadable in Perfetto / chrome://tracing. Span offsets are anchored at
/// each trace's wall_start_us so concurrent requests line up on one
/// timeline.
std::string ExportTracesChrome(const std::vector<TraceRecord>& traces);

/// Human-readable rendering of one trace: an indented span tree with
/// durations (adrec_tool's pretty printer; tests use it for goldens).
std::string FormatTraceTree(const TraceRecord& rec);

}  // namespace adrec::obs

#endif  // ADREC_OBS_TRACE_H_
