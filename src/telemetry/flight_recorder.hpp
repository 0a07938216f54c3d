// Lock-free flight recorder: per-thread bounded rings of TraceEvent
// records, overwrite-oldest, zero allocation on the frame path.
//
// Each writer thread owns one lane (registered on first emit; a deque
// keeps lane addresses stable). Within a lane the writer is single and
// readers are concurrent, so every slot is a tiny seqlock — the same
// idiom GrantRegistry uses: release payload stores after the odd version,
// acquire payload loads before the re-check, no standalone fence, so
// ThreadSanitizer models it. collect() validates each slot's version against the exact
// value its logical index implies, so a reader can tell "overwritten
// while I was reading" from "consistent" without ever blocking the
// writer: export-during-write returns only events that were fully
// written and not yet overwritten.
//
// Cost contract (same as span.hpp's SpanTimer): a pipeline stage holds a
// TracedSpan; with no recorder wired and a disarmed histogram it costs
// two predictable branches and zero clock reads. With a recorder, the
// span's single clock pair feeds both the stage histogram and the trace
// event — tracing never adds a second clock read to an already-timed
// stage. The CI gate (bench/bench_telemetry_overhead.cpp, "traced"
// column) holds the armed+traced frame path within the same 3% budget
// as armed metrics alone.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace hdc::telemetry {

class FlightRecorder {
 public:
  /// lane_capacity is rounded up to a power of two; each writer thread
  /// keeps that many most-recent events.
  explicit FlightRecorder(std::size_t lane_capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event to the calling thread's lane, overwriting the
  /// oldest if the lane is full. Wait-free after the thread's first call
  /// (which registers the lane under a mutex).
  void emit(const TraceEvent& event);

  /// Zero-duration event stamped with one clock read — for stages that
  /// mark a point in the causal story (acks, outcomes, terminal drops)
  /// rather than a measured interval.
  void emit_instant(const TraceContext& context, TraceStage stage,
                    TraceOutcome outcome);

  /// Snapshot of every event that is fully written and not yet
  /// overwritten, across all lanes, sorted by (t_start, trace_id, stage).
  /// Safe concurrent with writers; slots the writers are mid-overwrite on
  /// are skipped, never torn.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Total events ever emitted across all lanes.
  [[nodiscard]] std::uint64_t total_emitted() const;
  /// Events lost to overwrite-oldest across all lanes.
  [[nodiscard]] std::uint64_t overwritten() const;

  [[nodiscard]] std::size_t lane_capacity() const noexcept {
    return lane_capacity_;
  }
  /// Number of registered writer lanes (== distinct writer threads seen).
  [[nodiscard]] std::size_t lanes() const;

 private:
  struct Slot {
    // Seqlock per slot: version is odd while the writer is mid-store,
    // and lands on exactly 2*(wrap_count+1) when slot write w completes —
    // collect() uses that to detect overwrites precisely.
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> meta{0};  ///< stream | stage<<32 | outcome<<40
    std::atomic<std::uint64_t> sequence{0};
    std::atomic<std::uint64_t> t_start{0};
    std::atomic<std::uint64_t> t_end{0};
  };

  struct Lane {
    explicit Lane(std::size_t capacity) : slots(capacity) {}
    std::vector<Slot> slots;
    alignas(64) std::atomic<std::uint64_t> head{0};  ///< next logical index
  };

  Lane& lane_for_this_thread();

  const std::size_t lane_capacity_;
  const std::uint64_t instance_id_;
  mutable std::mutex lanes_mutex_;     ///< guards lane registration + iteration
  std::deque<Lane> lanes_;             ///< deque: stable addresses, no moves
};

/// Scoped stage timer that feeds a histogram AND the flight recorder from
/// one clock pair. Replaces TELEMETRY_SPAN at stages that participate in
/// causal tracing. The trace context may be set after construction
/// (set_context) for sites where the sequence is only known under a lock;
/// an event is emitted only when a recorder is wired AND a context was
/// set. set_outcome() tags the event (default kOk) — terminal outcomes
/// (kRejected, kClosed) are how backpressure paths close their traces.
class TracedSpan {
 public:
  TracedSpan(Histogram histogram, FlightRecorder* recorder,
             const TraceContext& context, TraceStage stage) noexcept
      : histogram_(histogram),
        recorder_(recorder),
        context_(context),
        stage_(stage),
        have_context_(context.trace_id != 0),
        armed_((histogram.armed() || recorder != nullptr) && enabled()),
        start_ns_(armed_ ? now_ns() : 0) {}

  TracedSpan(const TracedSpan&) = delete;
  TracedSpan& operator=(const TracedSpan&) = delete;

  void set_context(const TraceContext& context) noexcept {
    context_ = context;
    have_context_ = context.trace_id != 0;
  }
  void set_outcome(TraceOutcome outcome) noexcept { outcome_ = outcome; }

  ~TracedSpan() {
    if (!armed_) return;
    const std::uint64_t end_ns = now_ns();
    if (histogram_.armed()) {
      histogram_.record(end_ns - start_ns_);
    }
    if (recorder_ != nullptr && have_context_) {
      recorder_->emit({context_.trace_id, context_.stream_id,
                       context_.sequence, stage_, outcome_, start_ns_,
                       end_ns});
    }
  }

 private:
  Histogram histogram_;
  FlightRecorder* recorder_;
  TraceContext context_;
  TraceStage stage_;
  TraceOutcome outcome_{TraceOutcome::kOk};
  bool have_context_;
  bool armed_;
  std::uint64_t start_ns_;
};

}  // namespace hdc::telemetry
