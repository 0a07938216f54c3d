// Per-layer probes of a traced run, timed from outside the modules:
//   - the recognition pipeline composed from the public imaging calls in
//     recognize_frame_into's order, one span per stage, over the frames a
//     workload sent (weighted by how often each was sent), interleaved
//     with whole recognize_frame_into calls on the same frames;
//   - the protocol / interaction / coordination layers over a run's
//     journal: wire::parse_all, wire::encode, inject_observation replay
//     and admit_recorded replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet_inputs.hpp"

namespace fleetbench {

struct StageProbe {
  /// Weighted per-frame mean wall time of each stage, in milliseconds.
  double preprocess_ms{0.0};
  double threshold_ms{0.0};
  double morphology_ms{0.0};
  double components_ms{0.0};
  double contour_ms{0.0};
  double signature_ms{0.0};
  double match_ms{0.0};
  double frame_ms{0.0};  ///< whole recognize_frame_into, same frames
  std::string failure;   ///< "" when every composed payload matched
};

/// `counts[i]` = how many times distinct frame i was sent; frames with a
/// zero count are skipped.
[[nodiscard]] StageProbe probe_stages(const hdc::recognition::SaxSignRecognizer& reference,
                                      const FleetInputs& inputs,
                                      const std::vector<std::uint64_t>& counts,
                                      SpanLog* spans);

struct JournalProbe {
  double parse_us_per_record{0.0};
  double encode_us_per_record{0.0};
  double replay_us_per_observation{0.0};
  double replay_us_per_event{0.0};
  std::uint64_t records{0};
  std::uint64_t frames{0};        ///< frame observations (aborts excluded)
  std::uint64_t observations{0};  ///< frame + abort observations
  std::uint64_t fleet_events{0};
  std::uint64_t transitions{0};   ///< applied acks
  std::string failure;  ///< "" when the journal parses and re-encodes exactly
};

/// Counts a journal's records by kind (no timing).
[[nodiscard]] JournalProbe count_journal(const std::vector<std::uint8_t>& journal);

/// Times the journal layers (median of `reps` passes each).
[[nodiscard]] JournalProbe probe_journal(const std::vector<std::uint8_t>& journal,
                                         int reps, SpanLog* spans);

}  // namespace fleetbench
