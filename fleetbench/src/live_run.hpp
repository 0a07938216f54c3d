// One live run through the full stack as shipped:
//   loadgen ─submit─> PerceptionService ─callback─> InteractionService
//           ─DialogueListener─> CoordinationService
// with a protocol::JournalRecorder attached, one telemetry::MetricsRegistry
// wired into every service and the journal, and no FlightRecorder.
//
// Paced runs are open loop: every frame is submitted at its scheduled time
// and timed from it. Closed-loop runs keep a fixed window of frames in
// flight per drone, deep enough that every shard ring stays full and
// kBlock blocks the generator; a frame is due when the frame a window
// earlier on its stream was delivered.
// Traced runs add timestamps around the benchmark's own calls into the
// modules and a queue-depth sampler; nothing inside the program changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coordination/coordination_service.hpp"
#include "fleet_inputs.hpp"
#include "recognition/recognizer.hpp"

namespace fleetbench {

struct LiveConfig {
  bool paced{true};
  double fps{30.0};          ///< per-drone frame rate of the schedule
  std::size_t slots{1};      ///< contention pairs active at once
  std::size_t shards{3};     ///< PerceptionService shards (never 0)
  double warmup_s{2.0};      ///< schedule lead-in before the timed window
  double seconds{10.0};      ///< timed window
  bool traced{false};
  std::uint64_t seed{1};
};

struct LiveResult {
  // --- end to end (timed window) ---
  std::vector<double> frame_ms;     ///< due -> result callback
  std::vector<double> frame_due_s;  ///< due time of frame_ms[i], from window start
  std::vector<double> ack_ms;    ///< due of the triggering frame -> ack applied
  std::uint64_t window_frames{0};  ///< frames delivered in the window
  double window_s{0.0};            ///< measured length of the timed window
  double cpu_s{0.0};               ///< process user+sys over the window
  double inputs_per_sec{0.0};      ///< observations + fleet events consumed / s
  /// Process peak RSS once the run has drained, before the post-run checks
  /// (journal replays scale with the frames a run processed).
  double peak_rss_mb{0.0};

  // --- accounting over the whole run ---
  std::uint64_t frames_sent{0};
  std::uint64_t frames_failed{0};  ///< lost, undelivered or payload mismatch
  std::uint64_t payload_mismatches{0};
  std::uint64_t dialogues{0};      ///< dialogues of pairs sent in full
  std::uint64_t dialogues_failed{0};
  std::uint64_t granted_granted_pairs{0};  ///< both drones of a pair acked Granted
  bool correct{true};
  std::string failure;  ///< first correctness failure

  // --- per layer ---
  std::vector<double> lag_ms;  ///< loadgen lateness: submit call - due time
  std::vector<double> submit_us, on_result_us, result_to_ack_ms;  ///< traced only
  std::vector<double> depth_samples;  ///< total queued frames, traced only
  double depth_max{0.0};
  double shard_skew{0.0};
  std::uint64_t frames_lost{0};
  std::uint64_t interaction_events{0};
  std::uint64_t interaction_acks{0};
  hdc::coordination::CoordinationStats coordination{};
  std::uint64_t refused_grants{0};
  std::uint64_t conflict_records{0};  ///< refused grants seen in the journal

  std::vector<std::uint8_t> journal;  ///< finalized journal of the run
  std::vector<std::uint64_t> distinct_sent;  ///< window sends per distinct frame
};

/// Runs one live workload. `inputs` must hold enough pairs for the
/// schedule to outlast warmup + window (a shortfall fails the run).
/// When `spans` is set (traced runs), every frame's spans are appended.
[[nodiscard]] LiveResult run_live(const LiveConfig& config, const FleetInputs& inputs,
                                  const hdc::recognition::SaxSignRecognizer& reference,
                                  SpanLog* spans);

/// A contention-fleet journal recorded through the wired stack.
struct Recording {
  std::vector<std::uint8_t> journal;
  std::uint64_t frames{0};
  std::uint64_t dialogues{0};
  std::uint64_t dialogues_failed{0};
  std::uint64_t granted_granted_pairs{0};
  std::vector<std::uint64_t> distinct_sent;  ///< frames per distinct frame
};

/// Records the journal of `pairs` contention pairs joining `slots` slots
/// (30 fps schedule order, seeded like the live runs with `shards`). Each
/// frame's sequential-recognition result goes through
/// InteractionService::on_result and the dialogue and coordination workers
/// are drained before the next, so one seed always records the same
/// sequence of records of each type (the two workers still interleave
/// types in varying order).
[[nodiscard]] Recording record_journal(const FleetInputs& inputs,
                                       const hdc::recognition::SaxSignRecognizer& reference,
                                       std::size_t slots, std::size_t shards,
                                       std::size_t pairs, std::uint64_t seed);

/// Fastest of `reps` set-ups: canonical database build plus construction of
/// the wired service stack over `cells` orchard cells (each stack is torn
/// down untimed). The fastest, not the median: on a shared host the
/// single-thread build runs in fast and slow periods (about 7 and 12 ms, in
/// thread CPU time as much as in wall time) that last about 0.5-1 s each,
/// so the median follows how much of the run fell in slow periods. Enough
/// reps to span a few seconds nearly always include a fast period.
[[nodiscard]] double measure_setup_s(std::size_t shards, std::size_t cells, int reps);

/// Checks the grant log of a finalized journal: no grant may be accepted
/// for a cell another drone holds. Returns "" when clean, else the first
/// violation; counts refused (conflicting) grant records.
[[nodiscard]] std::string check_grant_log(const std::vector<std::uint8_t>& journal,
                                          std::uint64_t& conflict_records);

/// Replays a journal twice through protocol::ReplayDriver. Returns "" when
/// both replays are ok and byte-identical, else why not.
[[nodiscard]] std::string check_replay(const std::vector<std::uint8_t>& journal);

}  // namespace fleetbench
