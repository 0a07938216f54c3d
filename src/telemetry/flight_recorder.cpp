#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <unordered_map>

namespace hdc::telemetry {

namespace {

[[nodiscard]] std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Recorder instance ids are minted once and never recycled, so a stale
/// thread-local cache entry for a destroyed recorder can never alias a
/// live one.
std::atomic<std::uint64_t> g_next_instance_id{1};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t lane_capacity)
    : lane_capacity_(round_up_pow2(lane_capacity < 2 ? 2 : lane_capacity)),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::Lane& FlightRecorder::lane_for_this_thread() {
  // Single-entry cache in front of a per-thread map: the common case — a
  // pipeline thread emitting into one recorder — is one compare; a thread
  // alternating between recorders (tests, replay alongside a live run)
  // falls back to the map instead of registering a fresh lane per switch.
  struct Cached {
    std::uint64_t instance_id{0};
    Lane* lane{nullptr};
  };
  thread_local Cached cached;
  thread_local std::unordered_map<std::uint64_t, Lane*> known;

  if (cached.instance_id == instance_id_) return *cached.lane;
  if (auto it = known.find(instance_id_); it != known.end()) {
    cached = {instance_id_, it->second};
    return *it->second;
  }
  Lane* lane = nullptr;
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    lane = &lanes_.emplace_back(lane_capacity_);
  }
  known.emplace(instance_id_, lane);
  cached = {instance_id_, lane};
  return *lane;
}

void FlightRecorder::emit(const TraceEvent& event) {
  Lane& lane = lane_for_this_thread();
  const std::uint64_t head = lane.head.load(std::memory_order_relaxed);
  Slot& slot = lane.slots[head & (lane_capacity_ - 1)];

  // Seqlock write: odd version -> release payload stores -> even version
  // (release). Each release payload store carries the odd version to a
  // collector whose acquire load observes it (Boehm's fence-free seqlock,
  // which ThreadSanitizer models). The completed version for logical index
  // i is exactly 2 * (i / capacity + 1); collect() validates against that
  // to detect overwrites without locking the writer out.
  const std::uint64_t version = slot.version.load(std::memory_order_relaxed);
  slot.version.store(version + 1, std::memory_order_relaxed);
  slot.trace_id.store(event.trace_id, std::memory_order_release);
  slot.meta.store(static_cast<std::uint64_t>(event.stream_id) |
                      static_cast<std::uint64_t>(event.stage) << 32 |
                      static_cast<std::uint64_t>(event.outcome) << 40,
                  std::memory_order_release);
  slot.sequence.store(event.sequence, std::memory_order_release);
  slot.t_start.store(event.t_start_ns, std::memory_order_release);
  slot.t_end.store(event.t_end_ns, std::memory_order_release);
  slot.version.store(version + 2, std::memory_order_release);
  lane.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::emit_instant(const TraceContext& context,
                                  TraceStage stage, TraceOutcome outcome) {
  const std::uint64_t now = now_ns();
  emit({context.trace_id, context.stream_id, context.sequence, stage, outcome,
        now, now});
}

std::vector<TraceEvent> FlightRecorder::collect() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const Lane& lane : lanes_) {
    const std::uint64_t head = lane.head.load(std::memory_order_acquire);
    const std::uint64_t begin =
        head > lane_capacity_ ? head - lane_capacity_ : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const Slot& slot = lane.slots[i & (lane_capacity_ - 1)];
      const std::uint64_t expected = 2 * (i / lane_capacity_ + 1);
      const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 != expected) continue;  // mid-write (odd) or overwritten
      TraceEvent event;
      // Acquire payload loads pair with emit()'s release stores: a load
      // that sees a newer write also sees its odd version, so the re-check
      // below rejects the torn read.
      event.trace_id = slot.trace_id.load(std::memory_order_acquire);
      const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
      event.stream_id = static_cast<std::uint32_t>(meta & 0xFFFF'FFFFu);
      event.stage = static_cast<TraceStage>(meta >> 32 & 0xFF);
      event.outcome = static_cast<TraceOutcome>(meta >> 40 & 0xFF);
      event.sequence = slot.sequence.load(std::memory_order_acquire);
      event.t_start_ns = slot.t_start.load(std::memory_order_acquire);
      event.t_end_ns = slot.t_end.load(std::memory_order_acquire);
      if (slot.version.load(std::memory_order_relaxed) != v1) continue;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.t_start_ns != b.t_start_ns)
                return a.t_start_ns < b.t_start_ns;
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.stage < b.stage;
            });
  return events;
}

std::uint64_t FlightRecorder::total_emitted() const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.head.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    const std::uint64_t head = lane.head.load(std::memory_order_acquire);
    if (head > lane_capacity_) total += head - lane_capacity_;
  }
  return total;
}

std::size_t FlightRecorder::lanes() const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  return lanes_.size();
}

}  // namespace hdc::telemetry
