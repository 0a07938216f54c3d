// Causal tracing: trace-id determinism, flight-recorder ordering and
// overwrite-oldest semantics, seqlock consistency under concurrent
// collect, the pinned Chrome/Perfetto export, tail-latency attribution,
// and the TracedSpan disarmed-cost contract.
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace hdc::telemetry {
namespace {

TraceEvent event_of(std::uint32_t stream, std::uint64_t seq, TraceStage stage,
                    TraceOutcome outcome, std::uint64_t t0, std::uint64_t t1) {
  return {make_trace_id(stream, seq), stream, seq, stage, outcome, t0, t1};
}

// ------------------------------------------------------------- identity ---

TEST(TraceId, PureFunctionOfStreamAndSequence) {
  EXPECT_EQ(make_trace_id(0, 0), make_trace_id(0, 0));
  EXPECT_EQ(make_trace_id(7, 42), make_trace_id(7, 42));
  // Distinct across streams and sequences.
  EXPECT_NE(make_trace_id(0, 0), make_trace_id(1, 0));
  EXPECT_NE(make_trace_id(0, 0), make_trace_id(0, 1));
  EXPECT_NE(make_trace_id(3, 9), make_trace_id(9, 3));
}

TEST(TraceId, NeverZeroSoZeroMeansNoContext) {
  // Stream 0 / sequence 0 — the very first frame of the very first drone —
  // must still be distinguishable from an unset TraceContext.
  EXPECT_NE(make_trace_id(0, 0), 0u);
  const TraceContext context = TraceContext::of(0, 0);
  EXPECT_NE(context.trace_id, 0u);
  EXPECT_EQ(TraceContext{}.trace_id, 0u);
}

TEST(TraceId, StreamIdBoundKeepsIdsNonZeroAndDistinct) {
  // The 16-bit stream tag holds stream_id + 1: the bound is the last id
  // whose tag neither wraps to zero nor aliases stream 0.
  EXPECT_EQ(kMaxTraceStreamId, 65534u);
  EXPECT_NE(make_trace_id(kMaxTraceStreamId, 0), 0u);
  EXPECT_NE(make_trace_id(kMaxTraceStreamId, 0), make_trace_id(0, 0));
  EXPECT_EQ(make_trace_id(kMaxTraceStreamId + 1, 0), 0u);  // why it is the bound
  EXPECT_EQ(make_trace_id(kMaxTraceStreamId + 2, 5), make_trace_id(0, 5));
}

TEST(TraceId, ContextOfReconstitutesIdenticalIdentity) {
  const TraceContext minted = TraceContext::of(5, 123);
  const TraceContext reconstituted = TraceContext::of(5, 123);
  EXPECT_EQ(minted.trace_id, reconstituted.trace_id);
  EXPECT_EQ(minted.stream_id, 5u);
  EXPECT_EQ(minted.sequence, 123u);
}

// ------------------------------------------------------ flight recorder ---

TEST(FlightRecorderTest, SingleThreadRoundTripInOrder) {
  FlightRecorder recorder(64);
  std::vector<TraceEvent> emitted;
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    const TraceEvent event = event_of(2, seq, TraceStage::kRecognize,
                                      TraceOutcome::kAccepted, 100 * seq + 1,
                                      100 * seq + 50);
    recorder.emit(event);
    emitted.push_back(event);
  }
  const std::vector<TraceEvent> collected = recorder.collect();
  ASSERT_EQ(collected.size(), emitted.size());
  // collect() sorts by t_start, which for one writer is emission order.
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(collected[i], emitted[i]) << "event " << i;
  }
  EXPECT_EQ(recorder.total_emitted(), 10u);
  EXPECT_EQ(recorder.overwritten(), 0u);
  EXPECT_EQ(recorder.lanes(), 1u);
}

TEST(FlightRecorderTest, OverwritesOldestAtExactCapacity) {
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.lane_capacity(), 8u);
  const std::size_t total = 8 + 5;
  for (std::uint64_t seq = 0; seq < total; ++seq) {
    recorder.emit(event_of(1, seq, TraceStage::kSubmit, TraceOutcome::kOk,
                           1000 + seq, 1000 + seq));
  }
  const std::vector<TraceEvent> collected = recorder.collect();
  // Exactly the newest lane_capacity events survive; the 5 oldest are gone.
  ASSERT_EQ(collected.size(), 8u);
  for (std::size_t i = 0; i < collected.size(); ++i) {
    EXPECT_EQ(collected[i].sequence, 5 + i);
  }
  EXPECT_EQ(recorder.total_emitted(), total);
  EXPECT_EQ(recorder.overwritten(), 5u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(100);
  EXPECT_EQ(recorder.lane_capacity(), 128u);
}

TEST(FlightRecorderTest, ConcurrentWritersPreservePerThreadOrder) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  FlightRecorder recorder(2048);  // > kPerThread: nothing overwritten
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t seq = 0; seq < kPerThread; ++seq) {
        // Monotonic per-thread timestamps so collect()'s t_start sort is
        // the serial ground truth within each thread's lane.
        recorder.emit(event_of(static_cast<std::uint32_t>(t), seq,
                               TraceStage::kFuse, TraceOutcome::kOk,
                               seq * 10 + t, seq * 10 + t + 5));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  const std::vector<TraceEvent> collected = recorder.collect();
  ASSERT_EQ(collected.size(), kThreads * kPerThread);
  EXPECT_EQ(recorder.lanes(), kThreads);
  EXPECT_EQ(recorder.overwritten(), 0u);

  // Per stream (== per writer thread), every sequence present, in order.
  std::vector<std::uint64_t> next(kThreads, 0);
  for (const TraceEvent& event : collected) {
    ASSERT_LT(event.stream_id, kThreads);
    EXPECT_EQ(event.sequence, next[event.stream_id]++);
    EXPECT_EQ(event.trace_id, make_trace_id(event.stream_id, event.sequence));
    EXPECT_EQ(event.t_end_ns, event.t_start_ns + 5);
  }
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

TEST(FlightRecorderTest, CollectDuringWritesNeverYieldsTornEvents) {
  // Every emitted event's payload is a pure function of its sequence:
  // a torn read (mixing two events' fields) cannot satisfy all three
  // derived-field checks at once. collect() runs concurrently with the
  // writer and must only ever return internally consistent events.
  FlightRecorder recorder(256);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.emit(event_of(9, seq, TraceStage::kTransition,
                             TraceOutcome::kOk, seq * 1000 + 7,
                             seq * 1000 + 500));
      ++seq;
    }
  });
  for (int round = 0; round < 200; ++round) {
    const std::vector<TraceEvent> collected = recorder.collect();
    for (const TraceEvent& event : collected) {
      EXPECT_EQ(event.stream_id, 9u);
      EXPECT_EQ(event.trace_id, make_trace_id(9, event.sequence));
      EXPECT_EQ(event.t_start_ns, event.sequence * 1000 + 7);
      EXPECT_EQ(event.t_end_ns, event.sequence * 1000 + 500);
      EXPECT_EQ(event.stage, TraceStage::kTransition);
    }
  }
  stop.store(true);
  writer.join();
}

TEST(FlightRecorderTest, EmitInstantUsesOneTimestamp) {
  FlightRecorder recorder(16);
  recorder.emit_instant(TraceContext::of(3, 4), TraceStage::kAck,
                        TraceOutcome::kOk);
  const std::vector<TraceEvent> collected = recorder.collect();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].trace_id, make_trace_id(3, 4));
  EXPECT_EQ(collected[0].stage, TraceStage::kAck);
  EXPECT_EQ(collected[0].t_start_ns, collected[0].t_end_ns);
  EXPECT_GT(collected[0].t_start_ns, 0u);
}

// ----------------------------------------------------------- TracedSpan ---

TEST(TracedSpanTest, EmitsHistogramSampleAndTraceEventWhenArmed) {
  MetricsRegistry registry;
  const Histogram histogram = registry.histogram("span_test_ns");
  FlightRecorder recorder(16);
  {
    TracedSpan span(histogram, &recorder, TraceContext::of(1, 2),
                    TraceStage::kFuse);
    span.set_outcome(TraceOutcome::kOk);
  }
  // The snapshot must outlive the pointer find_histogram() returns into it.
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* snap = snapshot.find_histogram("span_test_ns");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, 1u);
  const std::vector<TraceEvent> collected = recorder.collect();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].trace_id, make_trace_id(1, 2));
  EXPECT_EQ(collected[0].stage, TraceStage::kFuse);
  EXPECT_GE(collected[0].t_end_ns, collected[0].t_start_ns);
}

TEST(TracedSpanTest, NoContextMeansHistogramOnly) {
  MetricsRegistry registry;
  const Histogram histogram = registry.histogram("span_noctx_ns");
  FlightRecorder recorder(16);
  { TracedSpan span(histogram, &recorder, TraceContext{}, TraceStage::kFuse); }
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_histogram("span_noctx_ns")->count, 1u);
  EXPECT_TRUE(recorder.collect().empty());
}

TEST(TracedSpanTest, SetContextArmsEmissionAfterConstruction) {
  FlightRecorder recorder(16);
  {
    TracedSpan span(Histogram{}, &recorder, TraceContext{},
                    TraceStage::kSubmit);
    span.set_context(TraceContext::of(4, 7));
    span.set_outcome(TraceOutcome::kRejected);
  }
  const std::vector<TraceEvent> collected = recorder.collect();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].trace_id, make_trace_id(4, 7));
  EXPECT_EQ(collected[0].outcome, TraceOutcome::kRejected);
}

TEST(TracedSpanTest, FullyDisarmedEmitsNothing) {
  // No histogram registry, no recorder: the span must not record or emit.
  { TracedSpan span(Histogram{}, nullptr, TraceContext::of(1, 1),
                    TraceStage::kFuse); }
  // Globally disabled: even a wired recorder stays silent.
  FlightRecorder recorder(16);
  set_enabled(false);
  { TracedSpan span(Histogram{}, &recorder, TraceContext::of(1, 1),
                    TraceStage::kFuse); }
  set_enabled(true);
  EXPECT_TRUE(recorder.collect().empty());
  EXPECT_EQ(recorder.total_emitted(), 0u);
}

// ------------------------------------------------------ frame assembly ---

TEST(AssembleFrames, GroupsByTraceWithEnvelopeAndTerminal) {
  std::vector<TraceEvent> events;
  events.push_back(event_of(0, 3, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 500, 900));
  events.push_back(event_of(0, 3, TraceStage::kSubmit, TraceOutcome::kOk,
                            100, 200));
  events.push_back(event_of(0, 3, TraceStage::kQueueWait, TraceOutcome::kOk,
                            200, 500));
  events.push_back(event_of(1, 0, TraceStage::kSubmit, TraceOutcome::kOk,
                            150, 250));
  events.push_back(event_of(1, 0, TraceStage::kAdmit, TraceOutcome::kShed,
                            260, 260));

  const std::vector<FrameTrace> frames = assemble_frames(std::move(events));
  ASSERT_EQ(frames.size(), 2u);
  // Sorted by (stream_id, sequence); events inside sorted by t_start.
  EXPECT_EQ(frames[0].stream_id, 0u);
  EXPECT_EQ(frames[0].sequence, 3u);
  EXPECT_EQ(frames[0].t_start_ns, 100u);
  EXPECT_EQ(frames[0].t_end_ns, 900u);
  EXPECT_EQ(frames[0].total_ns(), 800u);
  EXPECT_EQ(frames[0].terminal, TraceOutcome::kOk);
  ASSERT_EQ(frames[0].events.size(), 3u);
  EXPECT_EQ(frames[0].events[0].stage, TraceStage::kSubmit);
  EXPECT_EQ(frames[0].events[2].stage, TraceStage::kRecognize);

  EXPECT_EQ(frames[1].stream_id, 1u);
  EXPECT_EQ(frames[1].terminal, TraceOutcome::kShed);
}

// -------------------------------------------------------- Chrome export ---

TEST(ChromeExport, PinnedTwoDroneRun) {
  std::vector<TraceEvent> events;
  events.push_back(event_of(0, 0, TraceStage::kSubmit, TraceOutcome::kOk,
                            1000, 2000));
  events.push_back(event_of(0, 0, TraceStage::kQueueWait, TraceOutcome::kOk,
                            2000, 5000));
  events.push_back(event_of(0, 0, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 5000, 9000));
  events.push_back(event_of(1, 0, TraceStage::kSubmit, TraceOutcome::kOk,
                            1500, 2500));
  events.push_back(event_of(1, 0, TraceStage::kQueueWait, TraceOutcome::kOk,
                            2500, 4000));
  events.push_back(event_of(1, 0, TraceStage::kRecognize,
                            TraceOutcome::kNoMatch, 4000, 7000));

  // Byte-for-byte pin of the exporter's deterministic output: process
  // metadata per stream, then per frame an async "frame" envelope (cat
  // "frame") enclosing one async pair per stage, timestamps in µs with ns
  // precision. Any formatting drift is a breaking change for saved traces.
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\"args\":{\"name\":\"drone-stream 0\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\"args\":{\"name\":\"drone-stream 1\"}},\n"
      "{\"ph\":\"b\",\"cat\":\"frame\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"name\":\"frame 0\",\"args\":{\"terminal\":\"ok\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"frame\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":9.000,\"name\":\"frame 0\"},\n"
      "{\"ph\":\"b\",\"cat\":\"submit\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"name\":\"submit\",\"args\":{\"outcome\":\"ok\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"submit\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":2.000,\"name\":\"submit\"},\n"
      "{\"ph\":\"b\",\"cat\":\"queue_wait\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":2.000,\"name\":\"queue_wait\",\"args\":{\"outcome\":\"ok\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"queue_wait\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":5.000,\"name\":\"queue_wait\"},\n"
      "{\"ph\":\"b\",\"cat\":\"recognize\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":5.000,\"name\":\"recognize\",\"args\":{\"outcome\":\"accepted\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"recognize\",\"id\":\"0x1000000000000\",\"pid\":0,\"tid\":0,\"ts\":9.000,\"name\":\"recognize\"},\n"
      "{\"ph\":\"b\",\"cat\":\"frame\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"name\":\"frame 0\",\"args\":{\"terminal\":\"ok\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"frame\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":7.000,\"name\":\"frame 0\"},\n"
      "{\"ph\":\"b\",\"cat\":\"submit\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"name\":\"submit\",\"args\":{\"outcome\":\"ok\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"submit\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":2.500,\"name\":\"submit\"},\n"
      "{\"ph\":\"b\",\"cat\":\"queue_wait\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":2.500,\"name\":\"queue_wait\",\"args\":{\"outcome\":\"ok\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"queue_wait\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":4.000,\"name\":\"queue_wait\"},\n"
      "{\"ph\":\"b\",\"cat\":\"recognize\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":4.000,\"name\":\"recognize\",\"args\":{\"outcome\":\"no_match\"}},\n"
      "{\"ph\":\"e\",\"cat\":\"recognize\",\"id\":\"0x2000000000000\",\"pid\":1,\"tid\":0,\"ts\":7.000,\"name\":\"recognize\"}\n"
      "]}\n";
  EXPECT_EQ(export_chrome_trace(events), expected);
}

TEST(ChromeExport, EmptyEventSetIsStillValidJson) {
  EXPECT_EQ(export_chrome_trace({}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

TEST(ChromeExport, AsyncPairsBalancePerCatAndId) {
  // Structural property Perfetto depends on: every "b" has exactly one
  // matching "e" with the same (cat, id), in order.
  std::vector<TraceEvent> events;
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    events.push_back(event_of(0, seq, TraceStage::kSubmit, TraceOutcome::kOk,
                              seq * 100, seq * 100 + 10));
    events.push_back(event_of(0, seq, TraceStage::kRecognize,
                              TraceOutcome::kAccepted, seq * 100 + 10,
                              seq * 100 + 90));
  }
  const std::string json = export_chrome_trace(events);
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (std::size_t at = json.find("\"ph\":\"b\""); at != std::string::npos;
       at = json.find("\"ph\":\"b\"", at + 1)) {
    ++begins;
  }
  for (std::size_t at = json.find("\"ph\":\"e\""); at != std::string::npos;
       at = json.find("\"ph\":\"e\"", at + 1)) {
    ++ends;
  }
  EXPECT_EQ(begins, ends);
  // 5 frame envelopes + 10 stage slices.
  EXPECT_EQ(begins, 15u);
}

// ------------------------------------------------------- tail reporting ---

TEST(TailReportTest, NamesTheDominantStage) {
  std::vector<TraceEvent> events;
  // Frame (0, 0): 100 ns submit, 900 ns queue wait, 200 ns recognize.
  events.push_back(event_of(0, 0, TraceStage::kSubmit, TraceOutcome::kOk,
                            0, 100));
  events.push_back(event_of(0, 0, TraceStage::kQueueWait, TraceOutcome::kOk,
                            100, 1000));
  events.push_back(event_of(0, 0, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 1000, 1200));
  // Frame (0, 1): recognize dominates.
  events.push_back(event_of(0, 1, TraceStage::kSubmit, TraceOutcome::kOk,
                            2000, 2050));
  events.push_back(event_of(0, 1, TraceStage::kQueueWait, TraceOutcome::kOk,
                            2050, 2100));
  events.push_back(event_of(0, 1, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 2100, 2900));

  const TailReport report = build_tail_report(events, 2);
  EXPECT_EQ(report.frames_seen, 2u);
  ASSERT_EQ(report.worst.size(), 2u);
  // Worst first: frame 0 total 1200, frame 1 total 900.
  EXPECT_EQ(report.worst[0].sequence, 0u);
  EXPECT_EQ(report.worst[0].total_ns, 1200u);
  EXPECT_EQ(report.worst[0].dominant_stage, TraceStage::kQueueWait);
  EXPECT_EQ(report.worst[0].dominant_ns, 900u);
  EXPECT_EQ(report.worst[1].dominant_stage, TraceStage::kRecognize);
  EXPECT_EQ(report.worst[1].dominant_ns, 800u);
}

TEST(TailReportTest, ExcludesTerminatedFramesAndHonoursThreshold) {
  std::vector<TraceEvent> events;
  // A dropped frame with a huge envelope must NOT appear: it never
  // completed, so it cannot explain a completion percentile.
  events.push_back(event_of(0, 0, TraceStage::kQueueWait,
                            TraceOutcome::kDropped, 0, 1'000'000));
  // Two completed frames, one under the threshold.
  events.push_back(event_of(0, 1, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 0, 500));
  events.push_back(event_of(0, 2, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 0, 5000));

  const TailReport report = build_tail_report(events, 10, 1000);
  EXPECT_EQ(report.frames_seen, 2u);  // the dropped frame is not counted
  EXPECT_EQ(report.threshold_ns, 1000u);
  ASSERT_EQ(report.worst.size(), 1u);
  EXPECT_EQ(report.worst[0].sequence, 2u);
}

TEST(TailReportTest, RenderJsonShape) {
  std::vector<TraceEvent> events;
  events.push_back(event_of(3, 7, TraceStage::kRecognize,
                            TraceOutcome::kAccepted, 100, 700));
  const TailReport report = build_tail_report(events, 1);
  const std::string json = report.render_json();
  EXPECT_NE(json.find("\"frames_seen\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"stream\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sequence\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"dominant_stage\": \"recognize\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\": 600"), std::string::npos);
}

}  // namespace
}  // namespace hdc::telemetry
