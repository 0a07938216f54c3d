// PerceptionService: streamed results bit-identical to the sequential
// SaxSignRecognizer per stream, callbacks in sequence order per stream
// (across every stream/shard ratio), one shared SignDatabase instance
// across shards and engines (pointer equality), drop-oldest backpressure
// losing only the oldest queued frames, reject accounting, and shutdown
// semantics.
#include "recognition/perception_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "recognition/batch_recognizer.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"

namespace hdc::recognition {
namespace {

/// Serialises the deterministic payload of a result (everything except the
/// wall-clock total_ms) to bytes, with doubles copied bit-exactly.
void append_payload(const RecognitionResult& result, std::string& out) {
  out.push_back(result.accepted ? 1 : 0);
  out.push_back(static_cast<char>(result.sign));
  out.push_back(static_cast<char>(result.reject_reason));
  char bits[sizeof(double)];
  std::memcpy(bits, &result.distance, sizeof(double));
  out.append(bits, sizeof(double));
  std::memcpy(bits, &result.margin, sizeof(double));
  out.append(bits, sizeof(double));
  out.append(result.sax_word);
  out.push_back('|');
}

/// Thread-safe per-stream collector that also asserts the ordering
/// contract the moment it is violated: within a stream, sequences must be
/// strictly increasing (contiguity is NOT required — drop-oldest skips).
class Collector {
 public:
  void operator()(const StreamResult& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& stream = streams_[r.stream_id];
    if (!stream.sequences.empty()) {
      EXPECT_GT(r.sequence, stream.sequences.back())
          << "stream " << r.stream_id << " delivered out of order";
    }
    stream.sequences.push_back(r.sequence);
    append_payload(r.result, stream.payload);
  }

  [[nodiscard]] std::vector<std::uint64_t> sequences(std::uint32_t stream) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(stream);
    return it == streams_.end() ? std::vector<std::uint64_t>{} : it->second.sequences;
  }
  [[nodiscard]] std::string payload(std::uint32_t stream) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(stream);
    return it == streams_.end() ? std::string{} : it->second.payload;
  }
  [[nodiscard]] std::size_t total_delivered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& entry : streams_) n += entry.second.sequences.size();
    return n;
  }

 private:
  struct PerStream {
    std::vector<std::uint64_t> sequences;
    std::string payload;
  };
  mutable std::mutex mutex_;
  std::map<std::uint32_t, PerStream> streams_;
};

/// Shared sequential reference + feed scripts (database construction
/// renders frames, so build once for the whole suite).
class PerceptionServiceSuite : public ::testing::Test {
 protected:
  static constexpr std::size_t kStreams = 4;
  static constexpr std::size_t kFramesPerStream = 12;

  static void SetUpTestSuite() {
    sequential_ = new SaxSignRecognizer(RecognizerConfig{}, DatabaseBuildOptions{});
    signs::MultiDroneFeedConfig feed_config;
    feed_config.streams = kStreams;
    const signs::MultiDroneFeed feed(feed_config);
    scripts_ = new std::vector<std::vector<imaging::GrayImage>>(kStreams);
    expected_ = new std::vector<std::string>(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      (*scripts_)[s] = feed.prerender(s, kFramesPerStream);
      for (const imaging::GrayImage& frame : (*scripts_)[s]) {
        append_payload(sequential_->recognize(frame), (*expected_)[s]);
      }
    }
  }
  static void TearDownTestSuite() {
    delete sequential_;
    delete scripts_;
    delete expected_;
    sequential_ = nullptr;
    scripts_ = nullptr;
    expected_ = nullptr;
  }

  static SaxSignRecognizer* sequential_;
  static std::vector<std::vector<imaging::GrayImage>>* scripts_;
  static std::vector<std::string>* expected_;  ///< sequential payload bytes
};

SaxSignRecognizer* PerceptionServiceSuite::sequential_ = nullptr;
std::vector<std::vector<imaging::GrayImage>>* PerceptionServiceSuite::scripts_ =
    nullptr;
std::vector<std::string>* PerceptionServiceSuite::expected_ = nullptr;

TEST_F(PerceptionServiceSuite, BitIdenticalAndInOrderAcrossStreamShardRatios) {
  // Covers shards < streams, == streams, and > streams. Every cell must
  // deliver every frame, in per-stream sequence order, with payloads
  // byte-identical to the sequential recogniser.
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    Collector collect;
    PerceptionServiceConfig service_config;
    service_config.shards = shards;
    service_config.queue_capacity = 8;
    service_config.overflow = util::OverflowPolicy::kBlock;
    PerceptionService service(
        sequential_->config(), sequential_->database_ptr(),
        [&collect](const StreamResult& r) { collect(r); }, service_config);
    ASSERT_EQ(service.shard_count(), shards);

    std::vector<std::thread> producers;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      producers.emplace_back([&, s] {
        for (const imaging::GrayImage& frame : (*scripts_)[s]) {
          const SubmitReceipt receipt = service.submit(s, frame);
          EXPECT_EQ(receipt.status, SubmitStatus::kEnqueued);
          EXPECT_EQ(receipt.shard, service.shard_of(s));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    service.drain();

    for (std::uint32_t s = 0; s < kStreams; ++s) {
      const std::vector<std::uint64_t> seqs = collect.sequences(s);
      ASSERT_EQ(seqs.size(), kFramesPerStream) << "shards=" << shards;
      for (std::uint64_t i = 0; i < kFramesPerStream; ++i) {
        EXPECT_EQ(seqs[i], i) << "stream " << s << " shards=" << shards;
      }
      EXPECT_EQ(collect.payload(s), (*expected_)[s])
          << "stream " << s << " diverges from sequential at shards=" << shards;
    }
    const StreamStats totals = service.total_stats();
    EXPECT_EQ(totals.submitted, kStreams * kFramesPerStream);
    EXPECT_EQ(totals.delivered, kStreams * kFramesPerStream);
    EXPECT_EQ(totals.dropped, 0u);
    EXPECT_EQ(totals.rejected, 0u);
  }
}

TEST_F(PerceptionServiceSuite, ShardsShareExactlyOneDatabaseInstance) {
  const std::shared_ptr<const SignDatabase>& db = sequential_->database_ptr();
  const long use_before = db.use_count();
  PerceptionService service(
      sequential_->config(), db, [](const StreamResult&) {},
      {/*shards=*/4, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});
  // One extra owner (the service), regardless of shard count...
  EXPECT_EQ(db.use_count(), use_before + 1);
  // ...and every shard matches against literally the same object.
  for (std::size_t shard = 0; shard < service.shard_count(); ++shard) {
    EXPECT_EQ(service.shard_database(shard), db.get()) << "shard " << shard;
  }
  EXPECT_EQ(&service.database(), db.get());

  // The same sharing works across engine types: no copies anywhere.
  const BatchRecognizer batch_a(sequential_->config(), db, 1);
  const BatchRecognizer batch_b(sequential_->config(), db, 2);
  const SaxSignRecognizer seq_b(sequential_->config(), db);
  EXPECT_EQ(&batch_a.database(), &batch_b.database());
  EXPECT_EQ(&batch_a.database(), db.get());
  EXPECT_EQ(&seq_b.database(), db.get());
}

TEST_F(PerceptionServiceSuite, DropOldestLosesOnlyTheOldestFramesUnderOverload) {
  // Gate the single shard inside the callback for sequence 0, fill the
  // 4-slot ring (sequences 1-4), then submit five more frames. Each of
  // those must evict the oldest queued frame: 1,2,3,4,5 drop; 6,7,8,9
  // survive. Delivered = {0, 6, 7, 8, 9}.
  constexpr std::size_t kCapacity = 4;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = kCapacity;
  service_config.overflow = util::OverflowPolicy::kDropOldest;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        collect(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      service_config);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  {
    // The worker has popped sequence 0 and is parked in the callback; the
    // ring is empty and nothing else can be consumed until release.
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  for (std::uint64_t i = 1; i <= kCapacity; ++i) {
    const SubmitReceipt receipt = service.submit(0, frame);
    EXPECT_EQ(receipt.status, SubmitStatus::kEnqueued);
    EXPECT_EQ(receipt.sequence, i);
  }
  for (std::uint64_t i = kCapacity + 1; i <= 2 * kCapacity + 1; ++i) {
    const SubmitReceipt receipt = service.submit(0, frame);
    EXPECT_EQ(receipt.status, SubmitStatus::kEnqueuedDropOldest);
    EXPECT_EQ(receipt.sequence, i);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();

  const std::vector<std::uint64_t> seqs = collect.sequences(0);
  const std::vector<std::uint64_t> want = {0, 6, 7, 8, 9};
  EXPECT_EQ(seqs, want) << "survivors must be the newest frames, in order";
  const StreamStats stats = service.stream_stats(0);
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.delivered, 5u);
  EXPECT_EQ(stats.dropped, 5u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(PerceptionServiceSuite, RejectPolicyRefusesWithoutConsumingSequences) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = 2;
  service_config.overflow = util::OverflowPolicy::kReject;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        collect(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      service_config);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  EXPECT_EQ(service.submit(0, frame).sequence, 1u);  // fills slot 1
  EXPECT_EQ(service.submit(0, frame).sequence, 2u);  // fills slot 2
  for (int i = 0; i < 3; ++i) {
    const SubmitReceipt receipt = service.submit(0, frame);
    EXPECT_EQ(receipt.status, SubmitStatus::kRejected);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();

  // Rejected frames never consumed a sequence: delivery is contiguous.
  const std::vector<std::uint64_t> want = {0, 1, 2};
  EXPECT_EQ(collect.sequences(0), want);
  const StreamStats stats = service.stream_stats(0);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(PerceptionServiceSuite, DropOldestEmitsTerminalDroppedTraceEvents) {
  // Same overload script as DropOldestLosesOnlyTheOldestFramesUnderOverload,
  // with a flight recorder wired: every evicted frame's trace must be
  // CLOSED by a terminal kQueueWait/kDropped event — no trace ends open.
  constexpr std::size_t kCapacity = 4;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  telemetry::FlightRecorder recorder;
  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = kCapacity;
  service_config.overflow = util::OverflowPolicy::kDropOldest;
  service_config.recorder = &recorder;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        collect(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      service_config);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  for (std::uint64_t i = 1; i <= 2 * kCapacity + 1; ++i) {
    (void)service.submit(0, frame);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();

  const StreamStats stats = service.stream_stats(0);
  EXPECT_EQ(stats.dropped, 5u);

  std::set<std::uint64_t> dropped_sequences;
  std::set<std::uint64_t> recognized_sequences;
  for (const telemetry::TraceEvent& event : recorder.collect()) {
    if (event.outcome == telemetry::TraceOutcome::kDropped) {
      EXPECT_EQ(event.stage, telemetry::TraceStage::kQueueWait);
      EXPECT_EQ(event.trace_id,
                telemetry::make_trace_id(event.stream_id, event.sequence));
      EXPECT_GE(event.t_end_ns, event.t_start_ns);  // ring-residency interval
      dropped_sequences.insert(event.sequence);
    }
    if (event.stage == telemetry::TraceStage::kRecognize) {
      recognized_sequences.insert(event.sequence);
    }
  }
  // One terminal kDropped per evicted frame — count matches stats.dropped,
  // and no dropped frame also has a recognize event (it died in the ring).
  const std::set<std::uint64_t> want = {1, 2, 3, 4, 5};
  EXPECT_EQ(dropped_sequences, want);
  for (const std::uint64_t seq : dropped_sequences) {
    EXPECT_EQ(recognized_sequences.count(seq), 0u)
        << "sequence " << seq << " was both dropped and recognized";
  }
}

TEST_F(PerceptionServiceSuite, RejectPolicyEmitsTerminalRejectedTraceEvents) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  telemetry::FlightRecorder recorder;
  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = 2;
  service_config.overflow = util::OverflowPolicy::kReject;
  service_config.recorder = &recorder;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        collect(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      service_config);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  EXPECT_EQ(service.submit(0, frame).sequence, 1u);
  EXPECT_EQ(service.submit(0, frame).sequence, 2u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kRejected);
  }
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();

  // Each refused submit closes its (never-started) trace with a terminal
  // kSubmit/kRejected event. Rejected submits do not consume a sequence,
  // so all three carry the stream's unconsumed next sequence (3).
  std::size_t rejected_events = 0;
  for (const telemetry::TraceEvent& event : recorder.collect()) {
    if (event.outcome != telemetry::TraceOutcome::kRejected) continue;
    ++rejected_events;
    EXPECT_EQ(event.stage, telemetry::TraceStage::kSubmit);
    EXPECT_EQ(event.stream_id, 0u);
    EXPECT_EQ(event.sequence, 3u);
  }
  EXPECT_EQ(rejected_events, 3u);
  EXPECT_EQ(service.stream_stats(0).rejected, 3u);
}

TEST_F(PerceptionServiceSuite, DeliveredResultsCarryTheirTraceContext) {
  telemetry::FlightRecorder recorder;
  PerceptionServiceConfig service_config;
  service_config.shards = 2;
  service_config.recorder = &recorder;
  std::mutex mutex;
  std::vector<StreamResult> delivered;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        std::lock_guard<std::mutex> lock(mutex);
        delivered.push_back(r);
      },
      service_config);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 3; ++i) {
      (void)service.submit(static_cast<std::uint32_t>(s), (*scripts_)[s][i]);
    }
  }
  service.drain();

  ASSERT_EQ(delivered.size(), 6u);
  for (const StreamResult& r : delivered) {
    EXPECT_EQ(r.trace.stream_id, r.stream_id);
    EXPECT_EQ(r.trace.sequence, r.sequence);
    EXPECT_EQ(r.trace.trace_id,
              telemetry::make_trace_id(r.stream_id, r.sequence));
  }
  // And every delivered frame has submit + queue_wait + recognize events.
  std::map<std::uint64_t, std::set<telemetry::TraceStage>> stages_by_trace;
  for (const telemetry::TraceEvent& event : recorder.collect()) {
    stages_by_trace[event.trace_id].insert(event.stage);
  }
  for (const StreamResult& r : delivered) {
    const auto it = stages_by_trace.find(r.trace.trace_id);
    ASSERT_NE(it, stages_by_trace.end());
    EXPECT_TRUE(it->second.count(telemetry::TraceStage::kSubmit));
    EXPECT_TRUE(it->second.count(telemetry::TraceStage::kQueueWait));
    EXPECT_TRUE(it->second.count(telemetry::TraceStage::kRecognize));
  }
}

TEST_F(PerceptionServiceSuite, ConcurrentSameStreamSubmittersStayOrdered) {
  // Two threads race submit() on ONE stream: sequence assignment and ring
  // admission are atomic together, so delivery must still be strictly
  // increasing with no gaps (block policy, nothing dropped). Blank frames
  // keep the pipeline fast (they reject as kNoSilhouette).
  constexpr std::uint64_t kPerThread = 50;
  Collector collect;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&collect](const StreamResult& r) { collect(r); },
      {/*shards=*/1, /*queue_capacity=*/8, util::OverflowPolicy::kBlock});

  const imaging::GrayImage blank(64, 64, std::uint8_t{200});
  std::vector<std::thread> submitters;
  std::atomic<std::uint64_t> accepted{0};
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if (service.submit(7, blank).status == SubmitStatus::kEnqueued) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.drain();

  EXPECT_EQ(accepted.load(), 2 * kPerThread);
  const std::vector<std::uint64_t> seqs = collect.sequences(7);
  ASSERT_EQ(seqs.size(), 2 * kPerThread);
  for (std::uint64_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(PerceptionServiceSuite, StopIsIdempotentAndRefusesLateSubmits) {
  Collector collect;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&collect](const StreamResult& r) { collect(r); },
      {/*shards=*/2, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});
  EXPECT_EQ(service.submit(0, (*scripts_)[0].front()).status,
            SubmitStatus::kEnqueued);
  service.stop();
  service.stop();  // idempotent
  EXPECT_EQ(service.submit(0, (*scripts_)[0].front()).status,
            SubmitStatus::kStopped);
  // The frame admitted before stop() was still drained and delivered.
  EXPECT_EQ(collect.total_delivered(), 1u);
  service.drain();  // no pending frames; returns immediately
}

TEST_F(PerceptionServiceSuite, DrainIsACheckpointNotATerminator) {
  // The drain/submit contract: drain() only waits out what was admitted;
  // the service keeps running, later submits are served identically, the
  // per-stream sequence counter continues, and stats accumulate. Pinned as
  // a regression test because callers interleave replay chunks with
  // checkpoints exactly like this.
  Collector collect;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&collect](const StreamResult& r) { collect(r); },
      {/*shards=*/2, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});

  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      const SubmitReceipt receipt = service.submit(0, (*scripts_)[0][i]);
      EXPECT_EQ(receipt.status, SubmitStatus::kEnqueued);
      // Sequences continue across drain boundaries: no reset.
      EXPECT_EQ(receipt.sequence, static_cast<std::uint64_t>(cycle) * 4 + i);
    }
    service.drain();
    EXPECT_EQ(collect.total_delivered(), (static_cast<std::size_t>(cycle) + 1) * 4);
    const StreamStats stats = service.stream_stats(0);
    EXPECT_EQ(stats.submitted, (static_cast<std::uint64_t>(cycle) + 1) * 4);
    EXPECT_EQ(stats.delivered, stats.submitted);
  }
  // Payloads across all three cycles equal three sequential passes.
  std::string expected_payload;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      append_payload(sequential_->recognize((*scripts_)[0][i]), expected_payload);
    }
  }
  EXPECT_EQ(collect.payload(0), expected_payload);

  // drain() after stop() returns immediately instead of blocking.
  service.stop();
  service.drain();
  EXPECT_EQ(service.submit(0, (*scripts_)[0][0]).status, SubmitStatus::kStopped);
}

TEST_F(PerceptionServiceSuite, ShardGaugesReportLiveDepthAndOverflowCounters) {
  // Park the single shard worker inside the callback so the ring depth is
  // fully deterministic while we read the gauges.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      {/*shards=*/1, /*queue_capacity=*/4, util::OverflowPolicy::kReject});

  ShardGauge gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, 0u);
  EXPECT_EQ(gauge.capacity, 4u);
  EXPECT_EQ(gauge.evicted, 0u);
  EXPECT_EQ(gauge.rejected, 0u);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  service.submit(0, frame);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  for (int i = 0; i < 3; ++i) service.submit(0, frame);  // queue 3 behind it
  gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, 3u);
  EXPECT_EQ(service.shard_gauges().size(), 1u);
  EXPECT_EQ(service.shard_gauges()[0].depth, 3u);

  service.submit(0, frame);  // fills the ring
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kRejected);
  gauge = service.shard_gauge(0);
  EXPECT_EQ(gauge.depth, 4u);
  EXPECT_EQ(gauge.rejected, 1u);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();
  EXPECT_EQ(service.shard_gauge(0).depth, 0u);
  EXPECT_THROW((void)service.shard_gauge(99), std::out_of_range);
}

TEST_F(PerceptionServiceSuite, DynamicBackpressureSwitchesWithHysteresis) {
  // capacity 8, high-water 5, low-water 1. Park the worker in the callback
  // for sequence 0 so the queue depth is fully scripted by this thread:
  // the submit that OBSERVES depth >= 5 flips kBlock -> kDropOldest (so a
  // congested live feed can never block the camera), and once the worker
  // drains, the first submit observing depth <= 1 flips back.
  constexpr std::size_t kCapacity = 8;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_parked = false;
  bool release_worker = false;

  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = kCapacity;
  service_config.overflow = util::OverflowPolicy::kBlock;
  service_config.dynamic_backpressure = {/*enabled=*/true, /*high_water=*/5,
                                         /*low_water=*/1};
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        collect(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          worker_parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release_worker; });
        }
      },
      service_config);

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  // Depths observed before each push: 0,1,2,3,4 — all below the high-water
  // mark, the policy must stay kBlock and nothing may be lost.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
    EXPECT_EQ(service.shard_policy(0), util::OverflowPolicy::kBlock);
  }
  EXPECT_EQ(service.policy_switches(), 0u);

  // This submit observes depth 5 >= high_water: the switch happens NOW.
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  EXPECT_EQ(service.shard_policy(0), util::OverflowPolicy::kDropOldest);
  EXPECT_EQ(service.shard_gauge(0).policy, util::OverflowPolicy::kDropOldest);
  EXPECT_EQ(service.policy_switches(), 1u);

  // Fill to capacity and one beyond: instead of blocking the producer the
  // shard now evicts its oldest queued frame.
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);  // depth 7
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);  // depth 8
  EXPECT_EQ(service.submit(0, frame).status,
            SubmitStatus::kEnqueuedDropOldest);  // evicts sequence 1

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  service.drain();

  // Drained: the next submit observes depth 0 <= low_water and restores
  // lossless kBlock.
  EXPECT_EQ(service.submit(0, frame).status, SubmitStatus::kEnqueued);
  EXPECT_EQ(service.shard_policy(0), util::OverflowPolicy::kBlock);
  EXPECT_EQ(service.policy_switches(), 2u);
  service.drain();

  // Exactly the one above-capacity frame was lost; every frame submitted
  // below the high-water mark was delivered (sequence 1 was admitted
  // pre-switch but evicted as the oldest — that is kDropOldest's contract,
  // pinned above; the POLICY guarantee is that no eviction can happen
  // while depth stays below high_water).
  const StreamStats stats = service.stream_stats(0);
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.delivered, 10u);
  EXPECT_EQ(stats.dropped, 1u);
}

TEST_F(PerceptionServiceSuite, DynamicBackpressureIdleBelowLowWaterLosesNothing) {
  // A feed the worker keeps up with never reaches the high-water mark: the
  // policy never leaves kBlock and no frame is ever dropped.
  Collector collect;
  PerceptionServiceConfig service_config;
  service_config.shards = 1;
  service_config.queue_capacity = 4;
  service_config.overflow = util::OverflowPolicy::kBlock;
  service_config.dynamic_backpressure = {/*enabled=*/true, /*high_water=*/3,
                                         /*low_water=*/1};
  PerceptionService service(sequential_->config(), sequential_->database_ptr(),
                            std::ref(collect), service_config);
  for (const imaging::GrayImage& frame : (*scripts_)[0]) {
    service.submit(0, frame);
    service.drain();  // depth returns to 0 before the next submit
  }
  EXPECT_EQ(service.policy_switches(), 0u);
  EXPECT_EQ(service.shard_policy(0), util::OverflowPolicy::kBlock);
  const StreamStats stats = service.stream_stats(0);
  EXPECT_EQ(stats.submitted, kFramesPerStream);
  EXPECT_EQ(stats.delivered, kFramesPerStream);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST_F(PerceptionServiceSuite, DynamicBackpressureValidatesWatermarks) {
  PerceptionServiceConfig service_config;
  service_config.dynamic_backpressure = {/*enabled=*/true, /*high_water=*/4,
                                         /*low_water=*/4};
  EXPECT_THROW((void)PerceptionService(sequential_->config(),
                                       sequential_->database_ptr(),
                                       [](const StreamResult&) {},
                                       service_config),
               std::invalid_argument);
}

TEST_F(PerceptionServiceSuite, EmptyFrameThrowsAtSubmit) {
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [](const StreamResult&) {},
      {/*shards=*/1, /*queue_capacity=*/2, util::OverflowPolicy::kBlock});
  imaging::GrayImage empty;
  EXPECT_THROW(service.submit(0, empty), std::invalid_argument);
  EXPECT_THROW((void)PerceptionService(sequential_->config(), nullptr,
                                       [](const StreamResult&) {}),
               std::invalid_argument);
}

TEST_F(PerceptionServiceSuite, StreamIdAboveTraceBoundThrowsAndConsumesNoSequence) {
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [](const StreamResult&) {},
      {/*shards=*/1, /*queue_capacity=*/4, util::OverflowPolicy::kBlock});
  const imaging::GrayImage& frame = (*scripts_)[0][0];
  const SubmitReceipt first = service.submit(telemetry::kMaxTraceStreamId, frame);
  EXPECT_EQ(first.status, SubmitStatus::kEnqueued);
  EXPECT_EQ(first.sequence, 0u);
  EXPECT_THROW(service.submit(telemetry::kMaxTraceStreamId + 1, frame),
               std::invalid_argument);
  EXPECT_THROW(service.submit(0xFFFF'FFFFu, frame), std::invalid_argument);
  service.drain();
  EXPECT_EQ(service.stream_stats(telemetry::kMaxTraceStreamId + 1).submitted, 0u);
  EXPECT_EQ(service.total_stats().submitted, 1u);
  // The accepted stream's counter moved by exactly its one admitted frame.
  EXPECT_EQ(service.submit(telemetry::kMaxTraceStreamId, frame).sequence, 1u);
  service.drain();
}

}  // namespace
}  // namespace hdc::recognition
