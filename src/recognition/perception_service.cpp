#include "recognition/perception_service.hpp"

#include <stdexcept>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/span.hpp"

namespace hdc::recognition {

/// Registry entry for one stream. `order_mutex` serialises sequence
/// assignment *and* the ring push of concurrent same-stream submitters, so
/// frames of a stream always enqueue in sequence order (the per-stream
/// ordering guarantee rests on this). Counters are atomics because shard
/// workers bump `delivered`/`dropped` without taking the mutex.
struct PerceptionService::StreamState {
  std::mutex order_mutex;
  std::uint64_t next_sequence{0};  ///< guarded by order_mutex
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> rejected{0};
};

namespace {

std::shared_ptr<const SignDatabase> build_shared_database(
    const RecognizerConfig& config, const DatabaseBuildOptions& db_options) {
  // Same canonical construction as SaxSignRecognizer: templates run through
  // the identical pipeline, then freeze behind a const handle.
  const SaxSignRecognizer reference(config, db_options);
  return reference.database_ptr();
}

std::size_t resolve_shards(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

PerceptionService::PerceptionService(const RecognizerConfig& config,
                                     std::shared_ptr<const SignDatabase> database,
                                     ResultCallback on_result,
                                     const PerceptionServiceConfig& service_config)
    : config_(config),
      service_config_(service_config),
      database_(std::move(database)),
      on_result_(std::move(on_result)) {
  if (database_ == nullptr) {
    throw std::invalid_argument("PerceptionService: null database handle");
  }
  const DynamicBackpressureConfig& dynamic =
      service_config_.dynamic_backpressure;
  if (dynamic.enabled && dynamic.low_water >= dynamic.high_water) {
    throw std::invalid_argument(
        "PerceptionService: dynamic backpressure needs low_water < high_water");
  }
  if (service_config_.micro_batch_window == 0) {
    throw std::invalid_argument(
        "PerceptionService: micro_batch_window must be >= 1");
  }
  if (telemetry::MetricsRegistry* registry = service_config_.metrics) {
    submit_ns_ = registry->histogram(telemetry::kPerceptionSubmit);
    ring_wait_ns_ = registry->histogram(telemetry::kPerceptionRingWait);
    recognize_ns_ = registry->histogram(telemetry::kPerceptionRecognize);
    frames_submitted_ = registry->counter(telemetry::kPerceptionFramesSubmitted);
    frames_dropped_ = registry->counter(telemetry::kPerceptionFramesDropped);
    frames_rejected_ = registry->counter(telemetry::kPerceptionFramesRejected);
    queue_depth_ = registry->gauge(telemetry::kPerceptionQueueDepth);
  }
  recorder_ = service_config_.recorder;
  const std::size_t shard_count = resolve_shards(service_config.shards);
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(service_config.queue_capacity,
                                              service_config.overflow,
                                              database_.get()));
    if (service_config_.metrics != nullptr) {
      // Arm the shared pipeline's prepare/match/finalize spans per shard
      // scratch (one handle set per worker, same ownership as the buffers).
      shards_.back()->scratch.metrics =
          telemetry::RecognitionStageMetrics::from(*service_config_.metrics);
    }
  }
  // Threads start only after the shard vector is fully built: shard_of()
  // reads shards_.size() and must never observe a growing vector.
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { shard_loop(*raw); });
  }
}

PerceptionService::PerceptionService(const RecognizerConfig& config,
                                     const DatabaseBuildOptions& db_options,
                                     ResultCallback on_result,
                                     const PerceptionServiceConfig& service_config)
    : PerceptionService(config, build_shared_database(config, db_options),
                        std::move(on_result), service_config) {}

PerceptionService::~PerceptionService() { stop(); }

SubmitReceipt PerceptionService::submit(std::uint32_t stream_id,
                                        const imaging::GrayImage& frame) {
  return submit_job(stream_id, frame);  // copies: the camera keeps its buffer
}

SubmitReceipt PerceptionService::submit(std::uint32_t stream_id,
                                        imaging::GrayImage&& frame) {
  return submit_job(stream_id, std::move(frame));
}

SubmitReceipt PerceptionService::submit_job(std::uint32_t stream_id,
                                            imaging::GrayImage frame) {
  if (frame.empty()) {
    throw std::invalid_argument("PerceptionService::submit: empty frame");
  }
  if (stream_id > telemetry::kMaxTraceStreamId) {
    throw std::invalid_argument(
        "PerceptionService::submit: stream id above telemetry::kMaxTraceStreamId");
  }
  telemetry::TracedSpan span(submit_ns_, recorder_, {},
                             telemetry::TraceStage::kSubmit);
  SubmitReceipt receipt;
  receipt.shard = shard_of(stream_id);
  if (stopping_.load(std::memory_order_acquire)) {
    receipt.status = SubmitStatus::kStopped;
    return receipt;
  }
  StreamState& state = stream_state(stream_id);
  Shard& shard = *shards_[receipt.shard];
  if (service_config_.dynamic_backpressure.enabled) {
    maybe_switch_policy(shard);
  }

  std::lock_guard<std::mutex> order(state.order_mutex);
  // The trace context is minted here, once the sequence this frame will
  // claim is known. A rejected/closed submit never consumes the sequence,
  // so its terminal trace carries the stream's next UNCONSUMED sequence —
  // exactly which admission attempt died.
  const telemetry::TraceContext trace_context =
      telemetry::TraceContext::of(stream_id, state.next_sequence);
  span.set_context(trace_context);
  // Raise pending BEFORE the push: a shard can pop, process and deliver
  // this frame before push() even returns, and its decrement must never
  // precede our increment.
  pending_.raise();
  Job job;
  job.stream_id = stream_id;
  job.sequence = state.next_sequence;
  job.frame = std::move(frame);
  job.origin = &state;
  if ((ring_wait_ns_.armed() || recorder_ != nullptr) && telemetry::enabled()) {
    job.submitted_at_ns = telemetry::now_ns();
  }
  Job evicted;
  const util::PushOutcome outcome = shard.ring.push(std::move(job), &evicted);
  switch (outcome) {
    case util::PushOutcome::kEnqueued:
      receipt.status = SubmitStatus::kEnqueued;
      receipt.sequence = state.next_sequence++;
      state.submitted.fetch_add(1, std::memory_order_relaxed);
      frames_submitted_.add(1);
      queue_depth_.add(1);
      break;
    case util::PushOutcome::kEvictedOldest: {
      // The new frame is in; the shard's oldest queued frame (possibly from
      // another stream) will never be processed — account it now. Queue
      // depth is net zero: one frame in, one evicted out.
      receipt.status = SubmitStatus::kEnqueuedDropOldest;
      receipt.sequence = state.next_sequence++;
      state.submitted.fetch_add(1, std::memory_order_relaxed);
      evicted.origin->dropped.fetch_add(1, std::memory_order_relaxed);
      frames_submitted_.add(1);
      frames_dropped_.add(1);
      if (recorder_ != nullptr && telemetry::enabled()) {
        // The evicted frame's trace must not end open: close it with a
        // terminal kDropped event spanning its time in the ring.
        const std::uint64_t now = telemetry::now_ns();
        recorder_->emit({telemetry::make_trace_id(evicted.stream_id,
                                                  evicted.sequence),
                         evicted.stream_id, evicted.sequence,
                         telemetry::TraceStage::kQueueWait,
                         telemetry::TraceOutcome::kDropped,
                         evicted.submitted_at_ns != 0 ? evicted.submitted_at_ns
                                                      : now,
                         now});
      }
      finish_frames(1);
      break;
    }
    case util::PushOutcome::kRejected:
      receipt.status = SubmitStatus::kRejected;
      state.rejected.fetch_add(1, std::memory_order_relaxed);
      frames_rejected_.add(1);
      span.set_outcome(telemetry::TraceOutcome::kRejected);  // terminal
      finish_frames(1);
      break;
    case util::PushOutcome::kClosed:
      receipt.status = SubmitStatus::kStopped;
      span.set_outcome(telemetry::TraceOutcome::kClosed);  // terminal
      finish_frames(1);
      break;
  }
  return receipt;
}

void PerceptionService::shard_loop(Shard& shard) {
  const std::size_t window = service_config_.micro_batch_window;
  // Window arenas (worker-thread only). Reused across windows, so the
  // steady state stays allocation-free; result string capacity survives.
  std::vector<Job> jobs(window);
  std::vector<RecognitionResult> results(window);
  std::vector<const imaging::GrayImage*> frame_ptrs(window);
  std::vector<RecognitionResult*> result_ptrs(window);
  StreamResult delivery;
  // One pop_batch per window: it blocks for the first frame, then takes
  // whatever else is ALREADY queued, up to the configured cap. It never
  // waits for more — with a shallow queue (e.g. one live stream) m stays 1
  // and the frame takes the plain single-frame path, which is the latency
  // bound the config documents.
  while (const std::size_t m = shard.ring.pop_batch(jobs.data(), window)) {
    queue_depth_.add(-static_cast<std::int64_t>(m));
    if ((ring_wait_ns_.armed() || recorder_ != nullptr) &&
        telemetry::enabled()) {
      // One clock read covers the window; frames stamped while telemetry
      // was off carry 0 and are skipped.
      const std::uint64_t popped_at_ns = telemetry::now_ns();
      for (std::size_t k = 0; k < m; ++k) {
        const std::uint64_t submitted_at_ns = jobs[k].submitted_at_ns;
        if (submitted_at_ns == 0) continue;
        ring_wait_ns_.record(
            popped_at_ns > submitted_at_ns ? popped_at_ns - submitted_at_ns : 0);
        if (recorder_ != nullptr) {
          recorder_->emit({telemetry::make_trace_id(jobs[k].stream_id,
                                                    jobs[k].sequence),
                           jobs[k].stream_id, jobs[k].sequence,
                           telemetry::TraceStage::kQueueWait,
                           telemetry::TraceOutcome::kOk, submitted_at_ns,
                           popped_at_ns});
        }
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      frame_ptrs[k] = &jobs[k].frame;
      result_ptrs[k] = &results[k];
    }
    try {
      // The recognize window is timed manually rather than via a span so
      // ONE clock pair can feed both the stage histogram and the per-frame
      // kRecognize trace events (tracing never buys a second clock read).
      const bool timed = (recognize_ns_.armed() || recorder_ != nullptr) &&
                         telemetry::enabled();
      const std::uint64_t recognize_start_ns = timed ? telemetry::now_ns() : 0;
      recognize_frames_micro_batch(config_, *shard.database, frame_ptrs.data(),
                                   m, shard.scratch, shard.micro,
                                   result_ptrs.data());
      if (timed) {
        const std::uint64_t recognize_end_ns = telemetry::now_ns();
        if (recognize_ns_.armed()) {
          recognize_ns_.record(recognize_end_ns - recognize_start_ns);
        }
        if (recorder_ != nullptr) {
          for (std::size_t k = 0; k < m; ++k) {
            recorder_->emit({telemetry::make_trace_id(jobs[k].stream_id,
                                                      jobs[k].sequence),
                             jobs[k].stream_id, jobs[k].sequence,
                             telemetry::TraceStage::kRecognize,
                             results[k].accepted
                                 ? telemetry::TraceOutcome::kAccepted
                                 : telemetry::TraceOutcome::kNoMatch,
                             recognize_start_ns, recognize_end_ns});
          }
        }
      }
      // Deliver in pop (== per-stream sequence) order, preserving the
      // stream-ordering guarantee documented in the header.
      for (std::size_t k = 0; k < m; ++k) {
        delivery.stream_id = jobs[k].stream_id;
        delivery.sequence = jobs[k].sequence;
        delivery.result = results[k];  // copy: both sides keep warm capacity
        delivery.trace =
            telemetry::TraceContext::of(jobs[k].stream_id, jobs[k].sequence);
        if (on_result_) on_result_(delivery);
        jobs[k].origin->delivered.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      if (recorder_ != nullptr && telemetry::enabled()) {
        // The window's frames will never be delivered: close their traces
        // with terminal kError events.
        for (std::size_t k = 0; k < m; ++k) {
          recorder_->emit_instant(
              telemetry::TraceContext::of(jobs[k].stream_id, jobs[k].sequence),
              telemetry::TraceStage::kRecognize,
              telemetry::TraceOutcome::kError);
        }
      }
      pending_.record_error(std::current_exception());
    }
    finish_frames(m);
  }
}

void PerceptionService::finish_frames(std::size_t count) {
  pending_.finish(count);
}

void PerceptionService::maybe_switch_policy(Shard& shard) {
  // Only the kBlock <-> kDropOldest pair is managed: a deployment that
  // chose kDropOldest or kReject at construction made a static decision.
  if (service_config_.overflow != util::OverflowPolicy::kBlock) return;
  const DynamicBackpressureConfig& dynamic =
      service_config_.dynamic_backpressure;
  // One decider at a time per shard: without this, two producers can both
  // observe kBlock at high water and the switch counter ticks twice for
  // one logical transition.
  std::lock_guard<std::mutex> decide(shard.policy_mutex);
  const std::size_t depth = shard.ring.size();
  const util::OverflowPolicy current = shard.ring.policy();
  if (current == util::OverflowPolicy::kBlock && depth >= dynamic.high_water) {
    shard.ring.set_policy(util::OverflowPolicy::kDropOldest);
    policy_switches_.fetch_add(1, std::memory_order_relaxed);
  } else if (current == util::OverflowPolicy::kDropOldest &&
             depth <= dynamic.low_water) {
    shard.ring.set_policy(util::OverflowPolicy::kBlock);
    policy_switches_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PerceptionService::drain() { pending_.drain(); }

void PerceptionService::stop() noexcept {
  std::lock_guard<std::mutex> guard(stop_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  // close() wakes producers blocked on a full kBlock ring (their submit
  // returns kStopped) and lets each worker drain its remaining queue.
  for (std::unique_ptr<Shard>& shard : shards_) shard->ring.close();
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  stopped_ = true;
}

ShardGauge PerceptionService::shard_gauge(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("PerceptionService::shard_gauge: bad shard index");
  }
  const util::BoundedRing<Job>& ring = shards_[shard]->ring;
  return {ring.size(), ring.capacity(), ring.evicted_count(),
          ring.rejected_count(), ring.popped_count(), ring.policy()};
}

util::OverflowPolicy PerceptionService::shard_policy(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("PerceptionService::shard_policy: bad shard index");
  }
  return shards_[shard]->ring.policy();
}

std::vector<ShardGauge> PerceptionService::shard_gauges() const {
  std::vector<ShardGauge> gauges;
  gauges.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    gauges.push_back(shard_gauge(s));
  }
  return gauges;
}

const SignDatabase* PerceptionService::shard_database(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("PerceptionService::shard_database: bad shard index");
  }
  return shards_[shard]->database;
}

PerceptionService::StreamState& PerceptionService::stream_state(
    std::uint32_t stream_id) {
  {
    // Fast path: the stream already exists (every frame after a stream's
    // first). StreamState pointers are stable, so the reference stays
    // valid after the lock drops — the registry only ever grows.
    std::shared_lock<std::shared_mutex> lock(streams_mutex_);
    const auto it = streams_.find(stream_id);
    if (it != streams_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(streams_mutex_);
  std::unique_ptr<StreamState>& slot = streams_[stream_id];
  if (slot == nullptr) slot = std::make_unique<StreamState>();
  return *slot;
}

StreamStats PerceptionService::stream_stats(std::uint32_t stream_id) const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) return {};
  const StreamState& state = *it->second;
  return {state.submitted.load(std::memory_order_relaxed),
          state.delivered.load(std::memory_order_relaxed),
          state.dropped.load(std::memory_order_relaxed),
          state.rejected.load(std::memory_order_relaxed)};
}

StreamStats PerceptionService::total_stats() const {
  std::shared_lock<std::shared_mutex> lock(streams_mutex_);
  StreamStats total;
  for (const auto& entry : streams_) {
    const StreamState& state = *entry.second;
    total.submitted += state.submitted.load(std::memory_order_relaxed);
    total.delivered += state.delivered.load(std::memory_order_relaxed);
    total.dropped += state.dropped.load(std::memory_order_relaxed);
    total.rejected += state.rejected.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace hdc::recognition
