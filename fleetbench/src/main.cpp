// fleet_bench — the fleet benchmark's one command.
//
//   fleet_bench --workload NAME --seed N --seconds S --trace 0|1
//   fleet_bench --sweep --seed N --seconds S      (diagnostic load sweep)
//
// Workloads (all over coordination::make_contention_fleet pairs, one
// generator thread, PerceptionService shards fixed so the generator and
// the shards fit the host's cores):
//   paced_30fps       open loop: every drone sends at 30 fps from a seeded
//                     phase; kPacedSlots pairs (the operating point chosen
//                     from the load sweep, see load_sweep.md) stream at
//                     once and successive pairs join as earlier ones end.
//   burst_saturation  closed loop: the same fleet, each drone keeping a
//                     window of frames in flight so every shard ring stays
//                     full behind kBlock (capacity).
//   journal_replay    a contention-fleet journal recorded once (input
//                     generation), then replayed through ReplayDriver for
//                     the whole window (no imaging work).
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 prints the end-to-end metrics; --trace 1 runs the
// workload untraced and traced, prints the per-layer metrics plus the
// tracing overhead, and writes the spans to .bench_out/. Notes go to
// stderr.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fleet_inputs.hpp"
#include "layer_probes.hpp"
#include "live_run.hpp"
#include "protocol/replay_driver.hpp"

namespace {

using namespace fleetbench;
using hdc::recognition::SaxSignRecognizer;

constexpr double kFps = 30.0;
/// Contention pairs streaming at once on the live workloads (2 drones
/// each): the declared operating point, chosen from load_sweep.md.
constexpr std::size_t kPacedSlots = 6;
constexpr double kWarmupS = 2.0;
/// Journal of the replay workload: kReplaySlots slots x kReplayRounds pairs.
constexpr std::size_t kReplaySlots = 12;
constexpr std::size_t kReplayRounds = 3;
constexpr int kSetupReps = 150;
/// Upper bound on closed-loop throughput used only to size the fleet; a
/// host faster than this runs out of pairs and fails loudly.
constexpr double kBurstSizingFps = 6000.0;
/// Frame latency percentiles are taken per sub-window of this length and
/// the median across sub-windows is reported (at 360 frames/s a 3 s
/// sub-window still leaves 10 samples beyond its p99).
constexpr double kSubWindowS = 3.0;
/// p99 frame latency limit that defines the load sweep's knee.
constexpr double kKneeP99LimitMs = 50.0;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool sweep{false};
  std::string out_dir{".bench_out"};
};

struct Report {
  MetricList metrics;
  bool correct{true};
  std::string failure;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// A run's end-to-end readings. `gated` are the end-to-end metrics that
/// --trace 0 prints. `figures` are measured on every run and noted on
/// stderr, and traced runs report them as per-layer metrics; they are not
/// gates, because co-tenant load on the shared host moves them by more
/// than the largest bound a gate may claim (see README.md).
struct EndToEnd {
  MetricList gated;
  MetricList figures;
};

void note_figures(const EndToEnd& e2e) {
  std::cerr << "  figures:";
  for (const Metric& metric : e2e.figures.items()) {
    std::cerr << " " << metric.name << " " << metric.value;
  }
  std::cerr << "\n";
}

std::size_t shard_count() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw - 1, 1, 3);
}

std::uint64_t pair_ticks() {
  const auto grammar = hdc::interaction::CommandGrammar::standard();
  const auto fleet = hdc::coordination::make_contention_fleet(2, grammar);
  std::uint64_t ticks = 0;
  for (const auto& step : fleet.scripts[1]) ticks += step.ticks;  // staggered loser
  return ticks;
}

/// Pairs the schedule needs to outlast warm-up + window (+1 s of slack).
std::size_t pairs_for(const LiveConfig& config) {
  const double span_s = config.warmup_s + config.seconds + 1.0;
  const double ticks = static_cast<double>(pair_ticks());
  if (config.paced) {
    return config.slots * (static_cast<std::size_t>(span_s * config.fps / ticks) + 2);
  }
  return config.slots + static_cast<std::size_t>(kBurstSizingFps * span_s / (2 * ticks));
}

double frac_ok(std::uint64_t failed, std::uint64_t total) {
  return total == 0 ? 0.0 : 1.0 - static_cast<double>(failed) / static_cast<double>(total);
}

EndToEnd live_e2e(const LiveResult& r, double setup_s) {
  EndToEnd e2e;
  MetricList& m = e2e.gated;
  const double frames = static_cast<double>(std::max<std::uint64_t>(1, r.window_frames));
  m.add("frames_per_sec", frames / r.window_s, "frames/s");
  m.add("cpu_ms_per_frame", r.cpu_s * 1e3 / frames, "ms");
  m.add("replay_inputs_per_sec", r.inputs_per_sec, "1/s");
  m.add("frame_ok_frac", frac_ok(r.frames_failed, r.frames_sent), "ratio");
  m.add("dialogue_ok_frac", frac_ok(r.dialogues_failed, r.dialogues), "ratio");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", r.peak_rss_mb, "MB");
  MetricList& f = e2e.figures;
  f.add("latency.frame_p50_ms",
        windowed_percentile(r.frame_ms, r.frame_due_s, kSubWindowS, 50.0), "ms");
  f.add("latency.frame_p99_ms",
        windowed_percentile(r.frame_ms, r.frame_due_s, kSubWindowS, 99.0), "ms");
  f.add("latency.ack_p50_ms", median(r.ack_ms), "ms");
  f.add("latency.ack_p90_ms", percentile(r.ack_ms, 90.0), "ms");
  f.add("replay.wall_inputs_per_sec", r.inputs_per_sec, "1/s");
  return e2e;
}

void note_live(const char* label, const LiveResult& r) {
  std::cerr << "  " << label << ": " << r.frames_sent << " frames sent, "
            << r.frame_ms.size() << " timed frames, " << r.ack_ms.size()
            << " timed acks, loadgen lag p99 " << percentile(r.lag_ms, 99.0)
            << " ms\n  " << label << ": dialogues " << r.dialogues << ", missed "
            << r.dialogues_failed << "; arbitration race (pair ended Granted/"
            << "Granted): " << r.granted_granted_pairs << " of " << r.dialogues / 2
            << " pairs; refused grants " << r.refused_grants << "\n";
}

void add_live_layers(MetricList& m, const LiveResult& r, double seconds) {
  const double depth_mean = mean(r.depth_samples);
  const double frames_per_ms =
      static_cast<double>(std::max<std::uint64_t>(1, r.window_frames)) / (seconds * 1e3);
  m.add("recognition.submit_us_p99", percentile(r.submit_us, 99.0), "us");
  m.add("recognition.queue_depth_mean", depth_mean, "frames");
  m.add("recognition.queue_depth_max", r.depth_max, "frames");
  m.add("recognition.queue_wait_ms", depth_mean / frames_per_ms, "ms");
  m.add("recognition.shard_skew", r.shard_skew, "ratio");
  m.add("recognition.frames_lost", static_cast<double>(r.frames_lost), "count");
  m.add("interaction.on_result_us_p99", percentile(r.on_result_us, 99.0), "us");
  m.add("interaction.result_to_ack_ms", median(r.result_to_ack_ms), "ms");
  m.add("interaction.events", static_cast<double>(r.interaction_events), "count");
  m.add("interaction.acks", static_cast<double>(r.interaction_acks), "count");
  m.add("coordination.arbitrations", static_cast<double>(r.coordination.arbitrations),
        "count");
  m.add("coordination.deferrals", static_cast<double>(r.coordination.deferrals), "count");
  m.add("coordination.aborts_deferred",
        static_cast<double>(r.coordination.aborts_deferred), "count");
  m.add("coordination.refused_grants", static_cast<double>(r.refused_grants), "count");
  m.add("loadgen.lag_p99_ms", percentile(r.lag_ms, 99.0), "ms");
}

void add_probe_layers(MetricList& m, const StageProbe& stages, const JournalProbe& journal,
                      std::size_t journal_bytes) {
  m.add("imaging.preprocess_ms", stages.preprocess_ms, "ms");
  m.add("imaging.threshold_ms", stages.threshold_ms, "ms");
  m.add("imaging.morphology_ms", stages.morphology_ms, "ms");
  m.add("imaging.components_ms", stages.components_ms, "ms");
  m.add("imaging.contour_ms", stages.contour_ms, "ms");
  m.add("imaging.signature_ms", stages.signature_ms, "ms");
  m.add("recognition.match_ms", stages.match_ms, "ms");
  m.add("recognition.sequential_frame_ms", stages.frame_ms, "ms");
  const double frames = static_cast<double>(std::max<std::uint64_t>(1, journal.frames));
  m.add("protocol.journal_bytes_per_frame", static_cast<double>(journal_bytes) / frames,
        "B");
  m.add("protocol.journal_records_per_frame", static_cast<double>(journal.records) / frames,
        "count");
  m.add("protocol.parse_us_per_record", journal.parse_us_per_record, "us");
  m.add("protocol.encode_us_per_record", journal.encode_us_per_record, "us");
  m.add("interaction.replay_us_per_observation", journal.replay_us_per_observation, "us");
  m.add("coordination.replay_us_per_event", journal.replay_us_per_event, "us");
}

/// The stage spans must account for the single-thread frame time.
void check_stage_sum(Report& report, const StageProbe& stages) {
  if (!stages.failure.empty()) report.fail(stages.failure);
  const double sum = stages.preprocess_ms + stages.threshold_ms + stages.morphology_ms +
                     stages.components_ms + stages.contour_ms + stages.signature_ms +
                     stages.match_ms;
  report.metrics.add("recognition.stage_sum_ratio", sum / stages.frame_ms, "ratio");
  if (std::abs(sum / stages.frame_ms - 1.0) > 0.10) {
    report.fail("imaging + match stage times do not sum to within 10% of the "
                "single-thread frame time");
  }
}

/// overhead.<name> = traced / untraced - 1 for the timed gates and every
/// figure (set-up is never traced and RSS is process-wide, see README.md).
void add_overhead(MetricList& m, const EndToEnd& untraced, const EndToEnd& traced,
                  const SpanLog& spans) {
  for (const char* name : {"frames_per_sec", "cpu_ms_per_frame", "replay_inputs_per_sec"}) {
    m.add(std::string("overhead.") + name,
          traced.gated.value(name) / untraced.gated.value(name) - 1.0, "ratio");
  }
  for (const Metric& figure : untraced.figures.items()) {
    m.add("overhead." + figure.name.substr(figure.name.find('.') + 1),
          traced.figures.value(figure.name) / figure.value - 1.0, "ratio");
  }
  m.add("trace.span_mb", static_cast<double>(spans.bytes()) / (1024.0 * 1024.0), "MB");
}

void write_spans(const Args& args, const SpanLog& spans, Report& report) {
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (!spans.write_chrome_json(path)) {
    report.fail("cannot write span dump " + path);
    return;
  }
  std::cerr << "  spans: " << spans.spans().size() << " written to " << path << "\n";
}

LiveConfig live_config(const Args& args, bool paced) {
  LiveConfig config;
  config.paced = paced;
  config.fps = kFps;
  config.slots = kPacedSlots;
  config.shards = shard_count();
  config.warmup_s = kWarmupS;
  config.seconds = args.seconds;
  config.seed = args.seed;
  return config;
}

Report run_live_workload(const Args& args, bool paced) {
  Report report;
  LiveConfig config = live_config(args, paced);
  const double setup_s = measure_setup_s(config.shards, pairs_for(config), kSetupReps);
  const SaxSignRecognizer reference(hdc::recognition::RecognizerConfig{},
                                    hdc::recognition::DatabaseBuildOptions{});
  const FleetInputs inputs(reference, pairs_for(config));
  std::cerr << args.workload << ": " << 2 * config.slots << " drones at " << config.fps
            << " fps (" << (paced ? "open loop" : "closed loop") << "), " << config.shards
            << " shards, " << inputs.distinct_frames() << " distinct frames, "
            << config.seconds << " s window\n";

  const LiveResult untraced = run_live(config, inputs, reference, nullptr);
  note_live("untraced", untraced);
  if (!untraced.correct) report.fail(untraced.failure);
  const EndToEnd e2e = live_e2e(untraced, setup_s);
  note_figures(e2e);
  if (untraced.dialogues == 0) report.fail("no contention pair was sent in full; raise --seconds");
  report.attempted = untraced.frames_sent + untraced.dialogues;
  report.failed = untraced.frames_failed + untraced.dialogues_failed;
  if (!args.trace) {
    report.metrics = e2e.gated;
    return report;
  }

  SpanLog spans;
  config.traced = true;
  const LiveResult traced = run_live(config, inputs, reference, &spans);
  note_live("traced", traced);
  if (!traced.correct) report.fail(traced.failure);
  const StageProbe stages = probe_stages(reference, inputs, traced.distinct_sent, &spans);
  const JournalProbe journal = probe_journal(traced.journal, 5, &spans);
  if (!journal.failure.empty()) report.fail(journal.failure);
  add_probe_layers(report.metrics, stages, journal, traced.journal.size());
  add_live_layers(report.metrics, traced, config.seconds);
  for (const Metric& figure : e2e.figures.items()) report.metrics.add(figure);
  check_stage_sum(report, stages);
  add_overhead(report.metrics, e2e, live_e2e(traced, setup_s), spans);
  write_spans(args, spans, report);
  return report;
}

struct ReplayLoop {
  std::vector<double> pass_s;
  std::uint64_t inputs{0};
  double cpu_s{0.0};
  std::uint64_t passes_failed{0};
  std::string failure;
};

/// Replays `journal` back to back for `seconds`; every pass must be ok and
/// byte-identical to an untimed first pass.
ReplayLoop replay_loop(const std::vector<std::uint8_t>& journal, double seconds,
                       SpanLog* spans) {
  ReplayLoop loop;
  const hdc::protocol::ReplayDriver driver;
  const hdc::protocol::ReplayReport first = driver.replay(journal);
  if (!first.ok) {
    loop.failure = "journal replay diverged: " + first.mismatch;
    return loop;
  }
  const double cpu_begin = process_cpu_seconds();
  const std::int64_t begin = now_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() - begin < limit) {
    const std::int64_t pass_begin = now_ns();
    const hdc::protocol::ReplayReport report = driver.replay(journal);
    const std::int64_t pass_end = now_ns();
    loop.pass_s.push_back(static_cast<double>(pass_end - pass_begin) / 1e9);
    loop.inputs += report.observations_fed + report.fleet_events_fed;
    if (!report.ok || report.journal_bytes != first.journal_bytes) {
      ++loop.passes_failed;
      loop.failure = report.ok ? "two replays of one journal are not byte-identical"
                               : "journal replay diverged: " + report.mismatch;
    }
    if (spans != nullptr) {
      spans->add({"protocol.replay_pass", "", kNoStream, loop.pass_s.size() - 1,
                  pass_begin, pass_end});
    }
  }
  loop.cpu_s = process_cpu_seconds() - cpu_begin;
  return loop;
}

EndToEnd replay_e2e(const ReplayLoop& loop, const JournalProbe& counts,
                    const Recording& recording, double setup_s) {
  EndToEnd e2e;
  MetricList& m = e2e.gated;
  double total_s = 0.0;
  for (const double s : loop.pass_s) total_s += s;
  const double passes = static_cast<double>(loop.pass_s.size());
  const double frames = static_cast<double>(counts.frames);
  const double acks = static_cast<double>(counts.transitions);
  // A replay's wall time is dominated by wake-ups between the feeding
  // thread and the workers, which co-tenant load slows by up to 2x; its
  // CPU time is steady. The gated rates are therefore per CPU-second of
  // the replay loop (all three are one reading, rescaled), and the wall
  // rate is an ungated figure.
  const double inputs = static_cast<double>(loop.inputs);
  m.add("frames_per_sec", frames * passes / loop.cpu_s, "frames/s");
  m.add("cpu_ms_per_frame", loop.cpu_s * 1e3 / (frames * passes), "ms");
  m.add("replay_inputs_per_sec", inputs / loop.cpu_s, "1/s");
  m.add("frame_ok_frac", frac_ok(loop.passes_failed, loop.pass_s.size()), "ratio");
  m.add("dialogue_ok_frac", frac_ok(recording.dialogues_failed, recording.dialogues),
        "ratio");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  MetricList& f = e2e.figures;
  f.add("latency.frame_p50_ms", median(loop.pass_s) * 1e3 / frames, "ms");
  f.add("latency.frame_p99_ms", percentile(loop.pass_s, 99.0) * 1e3 / frames, "ms");
  f.add("latency.ack_p50_ms", median(loop.pass_s) * 1e3 / acks, "ms");
  f.add("latency.ack_p90_ms", percentile(loop.pass_s, 90.0) * 1e3 / acks, "ms");
  f.add("replay.wall_inputs_per_sec", inputs / total_s, "1/s");
  return e2e;
}

Report run_replay_workload(const Args& args) {
  Report report;
  const LiveConfig config = live_config(args, true);
  const std::size_t pairs = kReplaySlots * kReplayRounds;
  const double setup_s = measure_setup_s(config.shards, pairs, kSetupReps);
  const SaxSignRecognizer reference(hdc::recognition::RecognizerConfig{},
                                    hdc::recognition::DatabaseBuildOptions{});
  const FleetInputs inputs(reference, pairs);
  const Recording recording =
      record_journal(inputs, reference, kReplaySlots, config.shards, pairs, args.seed);
  const JournalProbe counts = count_journal(recording.journal);
  if (!counts.failure.empty()) report.fail(counts.failure);
  std::cerr << args.workload << ": journal of " << pairs << " contention pairs, "
            << counts.records << " records (" << counts.observations
            << " observations, " << counts.fleet_events << " fleet events), "
            << recording.journal.size() << " bytes; dialogues missed "
            << recording.dialogues_failed << " of " << recording.dialogues
            << "; arbitration race: " << recording.granted_granted_pairs << " pairs\n";
  std::uint64_t conflicts = 0;
  if (const std::string why = check_grant_log(recording.journal, conflicts); !why.empty()) {
    report.fail(why);
  }

  const ReplayLoop untraced = replay_loop(recording.journal, args.seconds, nullptr);
  std::cerr << "  untraced: " << untraced.pass_s.size() << " replay passes\n";
  if (!untraced.failure.empty()) report.fail(untraced.failure);
  const EndToEnd e2e = replay_e2e(untraced, counts, recording, setup_s);
  note_figures(e2e);
  report.attempted = untraced.pass_s.size() + recording.dialogues;
  report.failed = untraced.passes_failed + recording.dialogues_failed;
  if (!args.trace) {
    report.metrics = e2e.gated;
    return report;
  }

  SpanLog spans;
  const ReplayLoop traced = replay_loop(recording.journal, args.seconds, &spans);
  if (!traced.failure.empty()) report.fail(traced.failure);
  const StageProbe stages =
      probe_stages(reference, inputs, recording.distinct_sent, &spans);
  const JournalProbe journal = probe_journal(recording.journal, 5, &spans);
  if (!journal.failure.empty()) report.fail(journal.failure);
  add_probe_layers(report.metrics, stages, journal, recording.journal.size());

  // The live-only layers (perception queues, callbacks, loadgen) have no
  // work in a replay; report them from a short traced closed-loop pass
  // over the same fleet so every layer metric exists on every workload.
  LiveConfig live = live_config(args, false);
  live.seconds = std::max(2.0, args.seconds / 4.0);
  live.traced = true;
  const FleetInputs live_inputs(reference, pairs_for(live));
  const LiveResult companion = run_live(live, live_inputs, reference, nullptr);
  note_live("companion closed-loop", companion);
  if (!companion.correct) report.fail(companion.failure);
  add_live_layers(report.metrics, companion, live.seconds);
  for (const Metric& figure : e2e.figures.items()) report.metrics.add(figure);
  check_stage_sum(report, stages);
  add_overhead(report.metrics, e2e, replay_e2e(traced, counts, recording, setup_s), spans);
  write_spans(args, spans, report);
  return report;
}

/// Diagnostic, not a workload: paced runs at rising drone counts (30 fps)
/// plus one 60 fps point at the declared fleet size, kSweepReps seeds per
/// point. Prints each point's median figures and the run-to-run range of
/// its latency figures, then the knee.
int run_sweep(const Args& args) {
  constexpr int kSweepReps = 3;
  const SaxSignRecognizer reference(hdc::recognition::RecognizerConfig{},
                                    hdc::recognition::DatabaseBuildOptions{});
  struct Point {
    std::size_t slots;
    double fps;
  };
  std::vector<Point> points;
  const std::size_t step = shard_count();  // slots must be a multiple of the shards
  for (std::size_t slots = step; slots <= 9 * step; slots += step) {
    points.push_back({slots, 30.0});
  }
  points.push_back({kPacedSlots, 60.0});
  std::printf("| drones | fps/drone | offered frames/s | delivered frames/s | "
              "frame p50 ms | frame p99 ms | ack p50 ms | ack p90 ms | lag p99 ms | "
              "cpu ms/frame | p50 range | p99 range | valid runs |\n");
  std::printf("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
  double knee = 0.0;
  for (const Point& point : points) {
    LiveConfig config = live_config(args, true);
    config.slots = point.slots;
    config.fps = point.fps;
    const FleetInputs inputs(reference, pairs_for(config));
    std::vector<double> delivered, p50, p99, ack50, ack90, lag, cpu;
    int valid = 0;
    for (int rep = 0; rep < kSweepReps; ++rep) {
      config.seed = args.seed + static_cast<std::uint64_t>(rep);
      const LiveResult r = run_live(config, inputs, reference, nullptr);
      const EndToEnd e2e = live_e2e(r, 0.0);
      delivered.push_back(e2e.gated.value("frames_per_sec"));
      p50.push_back(e2e.figures.value("latency.frame_p50_ms"));
      p99.push_back(e2e.figures.value("latency.frame_p99_ms"));
      ack50.push_back(e2e.figures.value("latency.ack_p50_ms"));
      ack90.push_back(e2e.figures.value("latency.ack_p90_ms"));
      lag.push_back(percentile(r.lag_ms, 99.0));
      cpu.push_back(e2e.gated.value("cpu_ms_per_frame"));
      valid += r.correct ? 1 : 0;
    }
    const auto range = [](const std::vector<double>& v) {
      return (*std::max_element(v.begin(), v.end()) - *std::min_element(v.begin(), v.end())) /
             median(v);
    };
    const double offered = 2.0 * static_cast<double>(point.slots) * point.fps;
    std::printf("| %zu | %.0f | %.0f | %.1f | %.2f | %.2f | %.2f | %.2f | %.2f | %.3f | "
                "%.2f | %.2f | %d/%d |\n",
                2 * point.slots, point.fps, offered, median(delivered), median(p50),
                median(p99), median(ack50), median(ack90), median(lag), median(cpu),
                range(p50), range(p99), valid, kSweepReps);
    std::fflush(stdout);
    if (point.fps == kFps && valid == kSweepReps && median(p99) <= kKneeP99LimitMs &&
        median(delivered) >= 0.98 * offered) {
      knee = std::max(knee, offered);
    }
  }
  std::printf("\nknee (highest 30 fps load with median p99 <= %.0f ms, no backlog, all "
              "runs valid): %.0f frames/s; declared paced_30fps load: %.0f frames/s "
              "(%zu drones)\n",
              kKneeP99LimitMs, knee, 2.0 * kPacedSlots * kFps, 2 * kPacedSlots);
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sweep") {
      args.sweep = true;
    } else if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return args.seconds > 0.0 &&
         (args.sweep || args.workload == "paced_30fps" ||
          args.workload == "burst_saturation" || args.workload == "journal_replay");
}

void print_result(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  char value[64];
  bool first = true;
  for (const Metric& metric : report.metrics.items()) {
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: " << argv[0]
                << " --workload paced_30fps|burst_saturation|journal_replay --seed N"
                   " --seconds S --trace 0|1 [--out-dir DIR]\n       " << argv[0]
                << " --sweep --seed N --seconds S\n";
      return 2;
    }
    if (args.sweep) return run_sweep(args);
    Report report = args.workload == "journal_replay"
                        ? run_replay_workload(args)
                        : run_live_workload(args, args.workload == "paced_30fps");
    for (const Metric& metric : report.metrics.items()) {
      if (!std::isfinite(metric.value)) report.fail(metric.name + " is not finite");
    }
    if (report.attempted == 0) report.fail("nothing was attempted");
    if (!report.correct) std::cerr << "INCORRECT: " << report.failure << "\n";
    print_result(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "fleet_bench: " << error.what() << "\n";
    return 1;
  }
}
