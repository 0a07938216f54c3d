// PerceptionService — sharded, streaming multi-drone recognition.
//
// The paper validates one frame at a time from one drone; a deployed system
// serves many simultaneous perception streams (drone cohorts, cf.
// Cleland-Huang & Agrawal 2020; swarm signalling, cf. Grispino et al.
// 2020). This service turns the batch engine inside out:
//
//   streams ──submit()──> router ──rings──> shards ──callback──> caller
//
//   - Callers submit(stream_id, frame) from ANY thread; frames never wait
//     for a batch boundary.
//   - A router pins each stream to one of K worker shards (stable
//     stream -> shard affinity, so a shard's scratch arena stays warm for
//     the frame geometry it keeps seeing) via a bounded MPSC ring
//     (util::BoundedRing) with a configurable overflow policy: block,
//     drop-oldest (live feeds prefer fresh frames) or reject.
//   - Every shard owns a RecognizerScratch + MicroBatchScratch and runs the
//     same canonical pipeline as SaxSignRecognizer/BatchRecognizer. A shard
//     takes one window per ring lock (pop_batch: it blocks for the first
//     frame, then takes whatever is ALREADY queued up to micro_batch_window
//     frames — it never waits for frames that have not arrived, so an idle
//     stream keeps plain single-frame latency) and answers it with one blocked
//     database pass (recognize_frames_micro_batch). Payload fields are
//     bit-identical to sequential recognition of the same frames; only the
//     timing field total_ms reflects the batching.
//   - Completed frames are delivered through a per-frame callback carrying
//     {stream_id, sequence, result}. RecognitionResult itself is unchanged
//     (wrapped, not mutated), keeping the single-frame API ABI-stable.
//   - All shards match against ONE immutable SignDatabase behind a
//     std::shared_ptr<const SignDatabase> — N streams no longer mean N
//     template-store copies.
//
// Ordering guarantee: within a stream, callbacks arrive in strictly
// increasing sequence order (one shard per stream, FIFO ring, one worker
// per shard). Across streams there is no ordering. Under kDropOldest the
// delivered sequences stay monotonic but may skip the evicted (always the
// oldest queued) frames.
//
// Threading contract: the result callback runs on shard worker threads,
// potentially concurrently for different streams — it must be thread-safe
// and must not call submit()/drain()/stop() on this service (a callback
// that re-enters submit() on a full kBlock ring would deadlock the shard).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "recognition/recognizer.hpp"
#include "telemetry/trace.hpp"
#include "util/pending_counter.hpp"
#include "util/ring_buffer.hpp"

namespace hdc::telemetry {
class FlightRecorder;
}  // namespace hdc::telemetry

namespace hdc::recognition {

/// One delivered frame: the unchanged single-frame RecognitionResult plus
/// its stream coordinates (wrap, don't mutate — see header comment).
struct StreamResult {
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};  ///< per-stream, assigned at submit, starts at 0
  RecognitionResult result;
  /// Causal trace identity minted at submit. Always populated (the id is
  /// a pure function of stream_id/sequence, so filling it is branch-free
  /// integer math); only consulted when a FlightRecorder is wired.
  telemetry::TraceContext trace{};
};

/// What happened to a submitted frame at admission time.
enum class SubmitStatus : std::uint8_t {
  kEnqueued,            ///< admitted, nothing lost
  kEnqueuedDropOldest,  ///< admitted; the shard's oldest queued frame was evicted
  kRejected,            ///< refused (kReject policy, ring full)
  kStopped,             ///< refused (service stopping/stopped)
};

struct SubmitReceipt {
  SubmitStatus status{SubmitStatus::kEnqueued};
  /// The per-stream sequence assigned to the frame. Only an ADMITTED frame
  /// consumes a sequence number — a rejected or stopped submit leaves the
  /// stream's counter untouched, so delivered sequences under kReject stay
  /// contiguous while kDropOldest eviction shows up as gaps.
  std::uint64_t sequence{0};
  std::size_t shard{0};  ///< the shard this stream is pinned to
};

/// Runtime backpressure-policy switching (ROADMAP: dynamic backpressure).
/// With `enabled`, each submit watches its shard's queue depth: at or above
/// `high_water` a kBlock shard flips to kDropOldest (a congested live feed
/// must prefer fresh frames over stalling the camera thread), and at or
/// below `low_water` it flips back to kBlock (lossless again). The two
/// thresholds are a hysteresis band so a depth hovering near one mark
/// cannot thrash the policy. Shards configured kDropOldest/kReject at
/// construction are left alone — the switch only manages the
/// kBlock <-> kDropOldest pair.
struct DynamicBackpressureConfig {
  bool enabled{false};
  std::size_t high_water{48};  ///< depth >= this: switch to kDropOldest
  std::size_t low_water{8};    ///< depth <= this: switch back to kBlock
};

/// Service shape. Defaults suit a live multi-camera feed on a multi-core
/// companion computer.
struct PerceptionServiceConfig {
  std::size_t shards{0};           ///< worker shards; 0 = hardware concurrency
  std::size_t queue_capacity{64};  ///< frames buffered per shard ring
  util::OverflowPolicy overflow{util::OverflowPolicy::kBlock};
  DynamicBackpressureConfig dynamic_backpressure{};
  /// Max frames a shard answers with one blocked database pass. The gather
  /// is bounded AND non-blocking (only frames already queued join a window),
  /// so raising it amortises the exact-verify template walks under load
  /// without adding latency when the queue is shallow. 1 = micro-batching
  /// off. Must be >= 1 (std::invalid_argument otherwise).
  std::size_t micro_batch_window{4};
  /// Optional telemetry wiring (must outlive the service). When set, the
  /// service records submit/ring-wait/recognize spans, the per-stage
  /// recognition histograms, frame counters and a queue-depth gauge
  /// (names in telemetry/stage_names.hpp). Null = zero instrumentation
  /// cost beyond a predictable disarmed-handle branch per site.
  telemetry::MetricsRegistry* metrics{nullptr};
  /// Optional causal tracing (must outlive the service). When set, every
  /// frame's submit/queue-wait/recognize stages emit TraceEvents into the
  /// flight recorder, including terminal kDropped/kRejected events on the
  /// backpressure paths — no trace ends open. Null = same disarmed cost
  /// contract as `metrics`.
  telemetry::FlightRecorder* recorder{nullptr};
};

/// Per-stream accounting snapshot.
struct StreamStats {
  std::uint64_t submitted{0};  ///< frames admitted (incl. later-evicted)
  std::uint64_t delivered{0};  ///< callbacks fired
  std::uint64_t dropped{0};    ///< evicted under kDropOldest before processing
  std::uint64_t rejected{0};   ///< refused at submit under kReject
};

/// Live gauge of one shard's ingress ring (ROADMAP: per-shard queue-depth
/// gauges). `depth` is instantaneous — by the time the caller reads it the
/// worker may have drained frames — so treat it as a congestion signal, not
/// an exact count. Downstream consumers (e.g. InteractionService) use it
/// for backpressure decisions; dashboards use the cumulative counters.
struct ShardGauge {
  std::size_t depth{0};         ///< frames queued right now
  std::size_t capacity{0};      ///< ring capacity
  std::uint64_t evicted{0};     ///< cumulative kDropOldest evictions
  std::uint64_t rejected{0};    ///< cumulative kReject refusals
  /// Cumulative frames ever popped by the shard worker — the liveness
  /// signal the stalled-shard watchdog keys on (depth without popped
  /// progress across observations = stalled).
  std::uint64_t popped{0};
  /// The shard's overflow policy right now (== the configured policy
  /// unless dynamic backpressure switched it).
  util::OverflowPolicy policy{util::OverflowPolicy::kBlock};
};

class PerceptionService {
 public:
  using ResultCallback = std::function<void(const StreamResult&)>;

  /// Builds the service over an existing shared database handle. All
  /// shards reference exactly this instance (no copies).
  PerceptionService(const RecognizerConfig& config,
                    std::shared_ptr<const SignDatabase> database,
                    ResultCallback on_result,
                    const PerceptionServiceConfig& service_config = {});

  /// Convenience: builds the canonical database first (same semantics as
  /// SaxSignRecognizer), then shares it across the shards.
  PerceptionService(const RecognizerConfig& config,
                    const DatabaseBuildOptions& db_options,
                    ResultCallback on_result,
                    const PerceptionServiceConfig& service_config = {});

  /// Stops the service (drains queued frames, joins shard threads).
  ~PerceptionService();

  PerceptionService(const PerceptionService&) = delete;
  PerceptionService& operator=(const PerceptionService&) = delete;

  /// Submits one frame of `stream_id` from any thread. The frame is copied
  /// (the camera keeps its buffer); use the rvalue overload to move. The
  /// returned receipt carries the per-stream sequence number the frame was
  /// assigned. Throws std::invalid_argument for an empty frame or a
  /// stream id above telemetry::kMaxTraceStreamId (its trace ids would
  /// collide); a refused submit consumes no sequence.
  SubmitReceipt submit(std::uint32_t stream_id, const imaging::GrayImage& frame);
  SubmitReceipt submit(std::uint32_t stream_id, imaging::GrayImage&& frame);

  /// Blocks until every frame admitted by a submit() that returned before
  /// this call has been delivered (or evicted). Rethrows the first pipeline
  /// exception raised on a shard, if any (the error slot is cleared, so the
  /// next drain() reports only newer failures).
  ///
  /// drain() is a checkpoint, NOT a terminator: the service keeps running.
  /// The full contract of interleaving drain() with submit():
  ///   - submit() after drain() is well-defined — frames are admitted,
  ///     processed, and delivered exactly as before the drain; per-stream
  ///     sequence counters continue (no reset), and stats accumulate across
  ///     drain boundaries. Any number of submit/drain cycles is valid.
  ///   - submit() concurrent with drain(): the drain only promises to cover
  ///     frames whose submit() returned before drain() was entered; racing
  ///     frames may land before or after the wakeup.
  ///   - drain() after stop() returns immediately (nothing is pending) —
  ///     it never blocks on a stopped service.
  /// tests/perception_service_test.cpp pins this contract.
  void drain();

  /// Graceful shutdown: admits nothing new, drains what is queued, joins
  /// the shard threads. Idempotent; called by the destructor. Pipeline
  /// exceptions are swallowed here (use drain() to observe them).
  void stop() noexcept;

  /// Stable stream -> shard routing (exposed for tests and capacity math).
  [[nodiscard]] std::size_t shard_of(std::uint32_t stream_id) const noexcept {
    return static_cast<std::size_t>(stream_id) % shards_.size();
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const RecognizerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SignDatabase& database() const noexcept { return *database_; }
  [[nodiscard]] const std::shared_ptr<const SignDatabase>& database_ptr()
      const noexcept {
    return database_;
  }
  /// The database a given shard matches against — by construction the same
  /// object for every shard (pointer-equality is pinned in tests).
  [[nodiscard]] const SignDatabase* shard_database(std::size_t shard) const;

  /// Accounting snapshot for one stream (zeros for an unknown stream).
  [[nodiscard]] StreamStats stream_stats(std::uint32_t stream_id) const;
  /// Aggregate accounting across all streams.
  [[nodiscard]] StreamStats total_stats() const;

  /// Live queue gauge for one shard (throws std::out_of_range on a bad
  /// index), and the full per-shard vector for dashboards/backpressure.
  [[nodiscard]] ShardGauge shard_gauge(std::size_t shard) const;
  [[nodiscard]] std::vector<ShardGauge> shard_gauges() const;

  /// One shard's overflow policy right now (dynamic backpressure may have
  /// switched it away from the configured policy). Throws std::out_of_range
  /// on a bad index.
  [[nodiscard]] util::OverflowPolicy shard_policy(std::size_t shard) const;
  /// Cumulative dynamic-backpressure switches (both directions, all shards).
  [[nodiscard]] std::uint64_t policy_switches() const noexcept {
    return policy_switches_.load(std::memory_order_relaxed);
  }

 private:
  struct StreamState;

  /// One queued frame. Carries its origin so eviction and delivery can be
  /// accounted to the right stream without a registry lookup.
  struct Job {
    std::uint32_t stream_id{0};
    std::uint64_t sequence{0};
    imaging::GrayImage frame;
    StreamState* origin{nullptr};
    /// Submit timestamp for the ring-wait span; 0 when telemetry is off at
    /// submit time (the pop side then skips the frame).
    std::uint64_t submitted_at_ns{0};
  };

  /// One worker shard: FIFO ring, dedicated thread, warm scratch arena.
  /// Each shard holds a raw pointer into the service's single shared
  /// database — all K pointers compare equal by construction.
  struct Shard {
    Shard(std::size_t capacity, util::OverflowPolicy policy,
          const SignDatabase* db)
        : ring(capacity, policy), database(db) {}
    util::BoundedRing<Job> ring;
    const SignDatabase* database{nullptr};
    RecognizerScratch scratch;
    MicroBatchScratch micro;  ///< window-gather scratch (worker thread only)
    /// Serialises dynamic-backpressure decisions: the depth read, the
    /// hysteresis comparison and the set_policy must be one atomic step
    /// across producer threads or a flip double-applies and
    /// policy_switches() over-counts.
    std::mutex policy_mutex;
    std::thread worker;
  };

  SubmitReceipt submit_job(std::uint32_t stream_id, imaging::GrayImage frame);
  StreamState& stream_state(std::uint32_t stream_id);
  void shard_loop(Shard& shard);
  void finish_frames(std::size_t count);
  /// Dynamic backpressure: applies the hysteresis switch to one shard's
  /// ring from its observed depth (submit path, only when enabled).
  void maybe_switch_policy(Shard& shard);

  RecognizerConfig config_;
  PerceptionServiceConfig service_config_;
  std::shared_ptr<const SignDatabase> database_;
  ResultCallback on_result_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> policy_switches_{0};

  /// Telemetry handles — disarmed (no-op) unless the config wired a
  /// registry. Recording through them is wait-free (see telemetry/).
  telemetry::Histogram submit_ns_;
  telemetry::Histogram ring_wait_ns_;
  telemetry::Histogram recognize_ns_;
  telemetry::Counter frames_submitted_;
  telemetry::Counter frames_dropped_;
  telemetry::Counter frames_rejected_;
  telemetry::Gauge queue_depth_;
  telemetry::FlightRecorder* recorder_{nullptr};

  /// Registry shape is read-mostly (one miss per new stream ever): the
  /// steady-state submit path takes only a shared lock.
  mutable std::shared_mutex streams_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<StreamState>> streams_;

  /// Admitted frames not yet delivered/evicted, plus the first pipeline
  /// error for drain() (util::PendingCounter keeps the raise-before-push
  /// / lock-free-finish invariants in one place for every service).
  util::PendingCounter pending_;

  std::atomic<bool> stopping_{false};
  bool stopped_{false};  ///< set by stop(); guarded by stop_mutex_
  std::mutex stop_mutex_;
};

}  // namespace hdc::recognition
