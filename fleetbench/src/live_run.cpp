#include "live_run.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>

#include "interaction/interaction_service.hpp"
#include "protocol/journal.hpp"
#include "protocol/replay_driver.hpp"
#include "recognition/perception_service.hpp"
#include "telemetry/metrics.hpp"

namespace fleetbench {

using namespace hdc;

namespace {

/// Outside-in timestamps of one frame (0 = not reached). Each field has a
/// single writer: the generator, then the shard worker that delivers the
/// frame; the main thread reads them only after drain().
struct FrameStamp {
  std::int64_t due{0};
  std::int64_t submit_begin{0};
  std::int64_t submit_end{0};       ///< traced only
  std::int64_t callback{0};         ///< result callback entered
  std::int64_t on_result_begin{0};  ///< traced only
  std::int64_t on_result_end{0};    ///< traced only
  bool payload_ok{false};
};

/// Frames in flight per shard on the closed-loop workload, split evenly
/// over the shard's drones: 80 against the default 64-slot ring, so every
/// ring stays full and kBlock backpressure is always engaged.
constexpr std::uint64_t kClosedLoopInFlightPerShard = 80;

struct AckStamp {
  std::uint32_t stream{0};
  std::uint64_t tick{0};
  std::int64_t at{0};
};

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

std::int64_t to_ns(double seconds) { return static_cast<std::int64_t>(seconds * 1e9); }

/// The wired stack: coordination <- interaction (journal recorder spliced
/// into the listener seam) <- perception, one registry for all of them.
/// Members are destroyed in reverse order, so perception stops first.
class Stack {
 public:
  Stack(std::size_t cells, const recognition::RecognizerConfig& recognizer) {
    coordination_config_.cells = cells;
    coordination_config_.grant_ttl = 1'000'000;  // leases outlive the run
    coordination_config_.metrics = &metrics_;
    dialogue_config_.fusion = interaction::FusionPolicy::matching(recognizer);
    dialogue_config_.metrics = &metrics_;
    journal_.instrument(metrics_);
    coordinator_ = std::make_unique<coordination::CoordinationService>(
        coordination_config_);
    dialogue_ = std::make_unique<interaction::InteractionService>(
        dialogue_config_, interaction::CommandGrammar::standard());
    recorder_.record_config(
        protocol::make_run_config(dialogue_config_, coordination_config_));
    recorder_.attach_interaction(*dialogue_, coordinator_.get());
    recorder_.attach_coordination(*coordinator_);
    recorder_.set_metrics(&metrics_);
  }

  void start_perception(const recognition::SaxSignRecognizer& reference,
                        std::size_t shards,
                        recognition::PerceptionService::ResultCallback callback) {
    recognition::PerceptionServiceConfig config;
    config.shards = shards;
    config.metrics = &metrics_;
    perception_ = std::make_unique<recognition::PerceptionService>(
        reference.config(), reference.database_ptr(), std::move(callback), config);
    dialogue_->watch(perception_.get());
  }

  void drain() {
    // Settle the abort round trip: coordination -> interaction -> coordination.
    for (int round = 0; round < 3; ++round) {
      if (perception_ != nullptr) perception_->drain();
      dialogue_->drain();
      coordinator_->drain();
    }
  }

  void stop() {
    if (perception_ != nullptr) perception_->stop();
    dialogue_->stop();
    coordinator_->stop();
  }

  recognition::PerceptionService& perception() { return *perception_; }
  interaction::InteractionService& dialogue() { return *dialogue_; }
  coordination::CoordinationService& coordinator() { return *coordinator_; }
  protocol::JournalRecorder& recorder() { return recorder_; }
  protocol::EventJournal& journal() { return journal_; }

 private:
  telemetry::MetricsRegistry metrics_;
  protocol::EventJournal journal_;
  protocol::JournalRecorder recorder_{journal_};
  coordination::CoordinationConfig coordination_config_;
  interaction::InteractionServiceConfig dialogue_config_;
  std::unique_ptr<coordination::CoordinationService> coordinator_;
  std::unique_ptr<interaction::InteractionService> dialogue_;
  std::unique_ptr<recognition::PerceptionService> perception_;
};

/// Samples the total queued frames across shards on a fixed cadence until
/// destroyed (traced runs only).
class DepthSampler {
 public:
  DepthSampler(const recognition::PerceptionService& perception,
               std::vector<double>& samples)
      : thread_([this, &perception, &samples] {
          std::int64_t next = now_ns();
          while (running_.load(std::memory_order_relaxed)) {
            std::size_t total = 0;
            for (const recognition::ShardGauge& gauge : perception.shard_gauges()) {
              total += gauge.depth;
            }
            samples.push_back(static_cast<double>(total));
            next += kCadenceNs;
            sleep_until_ns(next);
          }
        }) {}
  ~DepthSampler() {
    running_.store(false, std::memory_order_relaxed);
    thread_.join();
  }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  static constexpr std::int64_t kCadenceNs = 2'000'000;

 private:
  std::atomic<bool> running_{true};
  std::thread thread_;
};

struct DialogueTally {
  std::uint64_t dialogues{0};
  std::uint64_t failed{0};
  std::uint64_t granted_granted{0};
};

/// Scores the dialogues of every pair sent in full: the winner must end
/// Granted and hold its cell, the loser must end Aborted. A dialogue that
/// never decides, or acks Granted while the registry gave the cell to its
/// rival, misses its scripted outcome.
DialogueTally tally_dialogues(const FleetInputs& inputs,
                              const std::vector<std::uint64_t>& sent,
                              const interaction::InteractionService& dialogue,
                              const coordination::CoordinationService& coordinator) {
  DialogueTally tally;
  const std::uint64_t ticks = inputs.ticks_per_drone();
  for (const coordination::PairExpectation& pair : inputs.fleet().pairs) {
    if (sent[pair.winner] != ticks || sent[pair.loser] != ticks) continue;
    tally.dialogues += 2;
    const coordination::GrantRecord grant = coordinator.grant(pair.cell);
    const protocol::Outcome won = dialogue.outcome(pair.winner);
    const protocol::Outcome lost = dialogue.outcome(pair.loser);
    if (won != protocol::Outcome::kGranted ||
        grant.state != coordination::GrantState::kGranted ||
        grant.holder != pair.winner) {
      ++tally.failed;
    }
    if (lost != protocol::Outcome::kAborted) ++tally.failed;
    if (won == protocol::Outcome::kGranted && lost == protocol::Outcome::kGranted) {
      ++tally.granted_granted;
    }
  }
  return tally;
}

}  // namespace

LiveResult run_live(const LiveConfig& config, const FleetInputs& inputs,
                    const recognition::SaxSignRecognizer& reference,
                    SpanLog* spans) {
  LiveResult out;
  const bool traced = config.traced;
  const std::size_t streams = inputs.streams();
  const std::uint64_t ticks = inputs.ticks_per_drone();
  std::vector<FrameStamp> stamps(streams * ticks);
  const auto stamp = [&](std::uint32_t s, std::uint64_t t) -> FrameStamp& {
    return stamps[static_cast<std::size_t>(s) * ticks + t];
  };
  std::vector<AckStamp> acks;
  acks.reserve(1 << 16);
  std::atomic<std::uint64_t> bad_callbacks{0};
  // Closed-loop flow control: per-stream delivered counts, and a counter the
  // generator sleeps on while every drone's window is full.
  std::vector<std::atomic<std::uint64_t>> delivered(streams);
  std::atomic<std::uint32_t> completions{0};

  Stack stack(inputs.pairs(), reference.config());
  for (const coordination::DroneDescriptor& drone : inputs.fleet().drones) {
    stack.coordinator().register_drone(drone);
  }
  interaction::InteractionService& dialogue = stack.dialogue();
  dialogue.set_ack_observer([&acks](const interaction::AckAction& ack) {
    acks.push_back({ack.stream_id, ack.tick, now_ns()});
  });
  stack.start_perception(
      reference, config.shards, [&](const recognition::StreamResult& r) {
        const std::int64_t entered = now_ns();
        FrameStamp* st = nullptr;
        if (r.stream_id < streams && r.sequence < ticks) {
          st = &stamp(r.stream_id, r.sequence);
          st->callback = entered;
          st->payload_ok =
              same_payload(r.result, *inputs.frame(r.stream_id, r.sequence).expected);
          if (traced) st->on_result_begin = now_ns();
        } else {
          bad_callbacks.fetch_add(1, std::memory_order_relaxed);
        }
        dialogue.on_result(r);
        if (traced && st != nullptr) st->on_result_end = now_ns();
        // Count every delivery, so the closed loop can never wait on a frame
        // that was delivered under an unexpected sequence.
        if (r.stream_id < streams) {
          delivered[r.stream_id].fetch_add(1, std::memory_order_release);
        }
        completions.fetch_add(1, std::memory_order_release);
        completions.notify_one();
      });
  recognition::PerceptionService& perception = stack.perception();

  std::unique_ptr<DepthSampler> sampler;
  if (traced) sampler = std::make_unique<DepthSampler>(perception, out.depth_samples);

  // ------------------------------------------------------------ loadgen ---
  Schedule schedule(config.slots, config.shards, config.fps, ticks, inputs.pairs(),
                    config.warmup_s, config.seed);
  std::vector<std::uint64_t> sent(streams, 0);
  std::uint64_t bad_receipts = 0;
  const std::int64_t origin = now_ns() + 10'000'000;
  const std::int64_t win_start = origin + to_ns(config.warmup_s);
  const std::int64_t win_end = win_start + to_ns(config.seconds);
  bool in_window = false;
  bool schedule_left = true;
  double cpu_start = 0.0;
  std::int64_t first_send = 0;
  const auto send = [&](std::uint32_t s, std::uint64_t t, std::int64_t due) {
    FrameStamp& st = stamp(s, t);
    const std::int64_t begin = now_ns();
    st.due = due;
    st.submit_begin = begin;
    const recognition::SubmitReceipt receipt =
        perception.submit(s, *inputs.frame(s, t).image);
    if (traced) st.submit_end = now_ns();
    if (receipt.status != recognition::SubmitStatus::kEnqueued ||
        receipt.sequence != t) {
      ++bad_receipts;
    }
    ++sent[s];
    if (first_send == 0) first_send = begin;
  };
  const auto open_window = [&] {
    cpu_start = process_cpu_seconds();
    in_window = true;
  };

  if (config.paced) {
    // Open loop: sleep until each frame's due time, whatever the service does.
    SendEvent event;
    schedule_left = false;
    while (schedule.next(event)) {
      const std::int64_t due = origin + event.due_ns;
      if (due >= win_end) {
        schedule_left = true;
        break;
      }
      if (!in_window && due >= win_start) {
        sleep_until_ns(win_start);
        open_window();
      }
      if (now_ns() < due) sleep_until_ns(due);
      send(event.stream, event.tick, due);
    }
    if (in_window) sleep_until_ns(win_end);
  } else {
    // Closed loop: each drone keeps up to `window` frames in flight and
    // sends its next frame once an earlier one is delivered; a slot's next
    // pair joins when the previous pair has sent every frame. The due time
    // of frame t is the delivery of frame t - window (filled in below).
    const std::uint64_t window =
        kClosedLoopInFlightPerShard * config.shards / (2 * config.slots);
    std::vector<std::int64_t> slot_pair(config.slots);
    std::vector<std::size_t> slot_round(config.slots, 0);
    for (std::size_t k = 0; k < config.slots; ++k) slot_pair[k] = schedule.pair_for(k, 0);
    std::size_t cursor = 0;
    sleep_until_ns(origin);
    while (true) {
      const std::int64_t now = now_ns();
      if (now >= win_end) break;
      if (!in_window && now >= win_start) open_window();
      const std::uint32_t seen = completions.load(std::memory_order_acquire);
      bool progressed = false;
      for (std::size_t i = 0; i < config.slots; ++i) {
        const std::size_t k = (cursor + i) % config.slots;
        if (slot_pair[k] < 0) continue;
        const auto pair = static_cast<std::uint32_t>(slot_pair[k]);
        bool pair_sent = true;
        for (const std::uint32_t s : {2 * pair, 2 * pair + 1}) {
          if (sent[s] == ticks) continue;
          pair_sent = false;
          if (sent[s] - delivered[s].load(std::memory_order_acquire) >= window) {
            continue;
          }
          send(s, sent[s], 0);
          progressed = true;
        }
        if (pair_sent) {
          slot_pair[k] = schedule.pair_for(k, ++slot_round[k]);
          if (slot_pair[k] < 0) schedule_left = false;
          progressed = true;
        }
      }
      cursor = (cursor + 1) % config.slots;
      if (!schedule_left) break;
      if (!progressed) completions.wait(seen, std::memory_order_acquire);
    }
    for (std::uint32_t s = 0; s < streams; ++s) {
      for (std::uint64_t t = 0; t < sent[s]; ++t) {
        FrameStamp& st = stamp(s, t);
        st.due = t >= window && stamp(s, t - window).callback != 0
                     ? stamp(s, t - window).callback
                     : st.submit_begin;
      }
    }
  }
  const double cpu_end = process_cpu_seconds();
  const std::int64_t window_close = now_ns();
  stack.drain();
  const std::int64_t drained = now_ns();
  out.peak_rss_mb = peak_rss_mb();
  sampler.reset();

  const auto fail = [&out](const std::string& why) {
    if (out.correct) out.failure = why;
    out.correct = false;
  };
  if (!schedule_left || !in_window) {
    fail("the schedule ran out of pairs before the timed window closed");
  }
  out.cpu_s = cpu_end - cpu_start;
  out.window_s = static_cast<double>(window_close - win_start) / 1e9;

  // ------------------------------------------------------------- frames ---
  out.distinct_sent.assign(inputs.distinct_frames(), 0);
  const auto in_win = [&](std::int64_t t) { return t >= win_start && t < win_end; };
  for (std::uint32_t s = 0; s < streams; ++s) {
    for (std::uint64_t t = 0; t < sent[s]; ++t) {
      const FrameStamp& st = stamp(s, t);
      ++out.frames_sent;
      if (st.callback == 0 || !st.payload_ok) ++out.frames_failed;
      if (st.callback != 0 && !st.payload_ok) ++out.payload_mismatches;
      if (in_win(st.callback)) ++out.window_frames;
      if (!in_win(st.due) || st.callback == 0) continue;
      ++out.distinct_sent[inputs.frame(s, t).distinct];
      out.lag_ms.push_back(static_cast<double>(st.submit_begin - st.due) / 1e6);
      out.frame_ms.push_back(static_cast<double>(st.callback - st.due) / 1e6);
      out.frame_due_s.push_back(static_cast<double>(st.due - win_start) / 1e9);
      if (!traced) continue;
      out.submit_us.push_back(static_cast<double>(st.submit_end - st.submit_begin) / 1e3);
      out.on_result_us.push_back(
          static_cast<double>(st.on_result_end - st.on_result_begin) / 1e3);
      if (spans != nullptr) {
        spans->add({"loadgen.frame", "", s, t, st.due, st.on_result_end});
        spans->add({"recognition.submit", "loadgen.frame", s, t, st.submit_begin,
                    st.submit_end});
        spans->add({"recognition.service", "loadgen.frame", s, t, st.submit_end,
                    st.callback});
        spans->add({"interaction.on_result", "loadgen.frame", s, t,
                    st.on_result_begin, st.on_result_end});
      }
    }
  }
  out.frames_failed += bad_receipts;
  if (bad_receipts != 0 || bad_callbacks.load() != 0) {
    fail("frame accounting broken: a submit was refused or delivered out of sequence");
  }
  if (out.payload_mismatches != 0) {
    fail(std::to_string(out.payload_mismatches) +
         " delivered payloads differ from sequential recognition");
  }

  for (const AckStamp& ack : acks) {
    if (ack.stream >= streams || ack.tick >= ticks) continue;
    const FrameStamp& st = stamp(ack.stream, ack.tick);
    if (!in_win(st.due) || st.callback == 0) continue;
    out.ack_ms.push_back(static_cast<double>(ack.at - st.due) / 1e6);
    if (!traced) continue;
    out.result_to_ack_ms.push_back(static_cast<double>(ack.at - st.callback) / 1e6);
    if (spans != nullptr) {
      spans->add({"interaction.ack", "loadgen.frame", ack.stream, ack.tick,
                  st.callback, ack.at});
    }
  }

  // ---------------------------------------------------------- dialogues ---
  coordination::CoordinationService& coordinator = stack.coordinator();
  const DialogueTally tally = tally_dialogues(inputs, sent, dialogue, coordinator);
  out.dialogues = tally.dialogues;
  out.dialogues_failed = tally.failed;
  out.granted_granted_pairs = tally.granted_granted;

  // ------------------------------------------------------- layer counts ---
  std::uint64_t observations = 0;
  std::vector<std::uint32_t> started;
  for (std::uint32_t s = 0; s < streams; ++s) {
    if (sent[s] == 0) continue;
    started.push_back(s);
    const recognition::StreamStats perceived = perception.stream_stats(s);
    out.frames_lost += perceived.dropped + perceived.rejected;
    const interaction::InteractionStreamStats talked = dialogue.stream_stats(s);
    out.interaction_events += talked.events_begun + talked.events_ended;
    out.interaction_acks += talked.acks;
    observations += talked.frames;
  }
  out.coordination = coordinator.stats();
  out.refused_grants = coordinator.registry_stats().conflicts;
  out.inputs_per_sec = static_cast<double>(observations + out.coordination.events) /
                       (static_cast<double>(drained - first_send) / 1e9);
  std::uint64_t most = 0;
  std::uint64_t least = ~std::uint64_t{0};
  for (const recognition::ShardGauge& gauge : perception.shard_gauges()) {
    most = std::max(most, gauge.popped);
    least = std::min(least, gauge.popped);
  }
  out.shard_skew = static_cast<double>(most) / static_cast<double>(std::max<std::uint64_t>(1, least));
  for (const double depth : out.depth_samples) out.depth_max = std::max(out.depth_max, depth);

  stack.stop();
  stack.recorder().finalize(dialogue, started, coordinator);
  out.journal = stack.journal().bytes();

  if (const std::string why = check_grant_log(out.journal, out.conflict_records);
      !why.empty()) {
    fail(why);
  }
  if (out.conflict_records != out.refused_grants) {
    fail("the journal's refused-grant records disagree with the registry's count");
  }
  if (const std::string why = check_replay(out.journal); !why.empty()) fail(why);
  if (config.paced) {
    const double interval_ms = 1e3 / config.fps;
    if (percentile(out.lag_ms, 99.0) > interval_ms) {
      fail("invalid paced run: the generator's p99 lag exceeded one frame interval");
    }
  }
  return out;
}

Recording record_journal(const FleetInputs& inputs,
                         const recognition::SaxSignRecognizer& reference,
                         std::size_t slots, std::size_t shards, std::size_t pairs,
                         std::uint64_t seed) {
  Recording out;
  out.distinct_sent.assign(inputs.distinct_frames(), 0);
  Stack stack(inputs.pairs(), reference.config());
  for (const coordination::DroneDescriptor& drone : inputs.fleet().drones) {
    stack.coordinator().register_drone(drone);
  }
  interaction::InteractionService& dialogue = stack.dialogue();
  Schedule schedule(slots, shards, 30.0, inputs.ticks_per_drone(), pairs, 2.0, seed);
  std::vector<std::uint64_t> sent(inputs.streams(), 0);
  SendEvent event;
  while (schedule.next(event)) {
    const FrameRef& frame = inputs.frame(event.stream, event.tick);
    recognition::StreamResult result;
    result.stream_id = event.stream;
    result.sequence = event.tick;
    result.result = *frame.expected;
    dialogue.on_result(result);
    stack.drain();
    ++sent[event.stream];
    ++out.distinct_sent[frame.distinct];
    ++out.frames;
  }
  const DialogueTally tally =
      tally_dialogues(inputs, sent, dialogue, stack.coordinator());
  out.dialogues = tally.dialogues;
  out.dialogues_failed = tally.failed;
  out.granted_granted_pairs = tally.granted_granted;
  std::vector<std::uint32_t> started;
  for (std::uint32_t s = 0; s < inputs.streams(); ++s) {
    if (sent[s] != 0) started.push_back(s);
  }
  stack.stop();
  stack.recorder().finalize(dialogue, started, stack.coordinator());
  out.journal = stack.journal().bytes();
  return out;
}

double measure_setup_s(std::size_t shards, std::size_t cells, int reps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t begin = now_ns();
    auto reference = std::make_unique<recognition::SaxSignRecognizer>(
        recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
    auto stack = std::make_unique<Stack>(cells, reference->config());
    interaction::InteractionService& dialogue = stack->dialogue();
    stack->start_perception(*reference, shards, dialogue.callback());
    samples.push_back(static_cast<double>(now_ns() - begin) / 1e9);
    stack.reset();  // joins the service threads, outside the timed span
  }
  return percentile(samples, 0.0);
}

std::string check_grant_log(const std::vector<std::uint8_t>& journal,
                            std::uint64_t& conflict_records) {
  std::vector<protocol::wire::AnyRecord> records;
  protocol::wire::WireError error;
  if (!protocol::wire::parse_all(journal, records, error)) {
    return "the run's journal does not parse: " + error.message;
  }
  struct Slot {
    std::uint8_t state{0};
    std::uint32_t holder{0};
  };
  const auto granted = static_cast<std::uint8_t>(coordination::GrantState::kGranted);
  std::unordered_map<std::int32_t, Slot> cells;
  conflict_records = 0;
  for (const protocol::wire::AnyRecord& record : records) {
    const auto* update = std::get_if<protocol::wire::GrantUpdateRecord>(&record);
    if (update == nullptr) continue;
    if (update->conflict != 0) {
      ++conflict_records;
      continue;
    }
    Slot& slot = cells[update->cell];
    if (update->state == granted && slot.state == granted &&
        slot.holder != update->holder) {
      return "cell " + std::to_string(update->cell) + " granted to drone " +
             std::to_string(update->holder) + " while drone " +
             std::to_string(slot.holder) + " held it";
    }
    slot = {update->state, update->holder};
  }
  return "";
}

std::string check_replay(const std::vector<std::uint8_t>& journal) {
  const protocol::ReplayDriver driver;
  const protocol::ReplayReport first = driver.replay(journal);
  if (!first.ok) return "journal replay diverged: " + first.mismatch;
  const protocol::ReplayReport second = driver.replay(journal);
  if (!second.ok) return "second journal replay diverged: " + second.mismatch;
  if (first.journal_bytes != second.journal_bytes) {
    return "two replays of one journal are not byte-identical";
  }
  return "";
}

}  // namespace fleetbench
