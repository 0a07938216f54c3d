#include "protocol/replay_driver.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>
#include <variant>

#include "protocol/journal.hpp"

namespace hdc::protocol {

namespace {

/// Each record's envelope bytes in one journal, grouped by record type
/// (group order == append order, which per type is the single writer's
/// deterministic order). Slot 0 stays empty: type ids start at 1.
using EnvelopesByType = std::array<
    std::vector<std::span<const std::uint8_t>>,
    static_cast<std::size_t>(wire::RecordType::kMetricSnapshot) + 1>;

/// Walks the envelope headers of `journal` without decoding payloads.
/// False when a header declares a type or length the buffer cannot hold —
/// the caller only walks journals whose envelopes already verified.
bool group_envelopes(std::span<const std::uint8_t> journal,
                     EnvelopesByType& out) {
  std::size_t offset = 0;
  while (offset < journal.size()) {
    if (journal.size() - offset < wire::kEnvelopeHeaderSize) return false;
    const std::uint8_t type = journal[offset + 2];
    const std::size_t size =
        wire::kEnvelopeHeaderSize +
        (journal[offset + 3] | (std::size_t{journal[offset + 4]} << 8)) +
        wire::kEnvelopeTrailerSize;
    if (type == 0 || type >= out.size() || size > journal.size() - offset) {
      return false;
    }
    out[type].push_back(journal.subspan(offset, size));
    offset += size;
  }
  return true;
}

/// First per-type divergence between the recorded and replayed journals'
/// envelope bytes, or "" when every type agrees byte for byte.
std::string first_mismatch(const EnvelopesByType& recorded,
                           const EnvelopesByType& replayed) {
  for (std::size_t t = 1; t < recorded.size(); ++t) {
    const auto type = static_cast<wire::RecordType>(t);
    const std::vector<std::span<const std::uint8_t>>& a = recorded[t];
    const std::vector<std::span<const std::uint8_t>>& b = replayed[t];
    if (a.size() != b.size()) {
      std::ostringstream out;
      out << wire::to_string(type) << " count diverged: recorded " << a.size()
          << ", replayed " << b.size();
      return out.str();
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!std::ranges::equal(a[i], b[i])) {
        std::ostringstream out;
        out << wire::to_string(type) << " record " << i
            << " diverged between recording and replay";
        return out.str();
      }
    }
  }
  return "";
}

}  // namespace

ReplayDriver::ReplayDriver(ReplayOptions options)
    : options_(std::move(options)) {}

ReplayReport ReplayDriver::replay(std::span<const std::uint8_t> journal) const {
  ReplayReport report;

  std::vector<wire::AnyRecord> records;
  if (!wire::parse_all(journal, records, report.error)) {
    std::ostringstream out;
    out << "journal rejected at offset " << report.error.offset << ": "
        << wire::to_string(report.error.code) << " (" << report.error.message
        << ")";
    report.mismatch = out.str();
    return report;
  }

  // Structural checks before any replay work: a journal must open with its
  // RunConfig header and close with a JournalEnd whose count covers every
  // record before it — otherwise the file was cut short mid-run.
  if (records.empty() ||
      wire::record_type(records.front()) != wire::RecordType::kRunConfig) {
    report.mismatch = "journal does not start with a RunConfig header";
    return report;
  }
  if (wire::record_type(records.back()) != wire::RecordType::kJournalEnd) {
    report.mismatch = "journal truncated: missing the JournalEnd trailer";
    return report;
  }
  const auto& end = std::get<wire::JournalEndRecord>(records.back());
  if (end.record_count != records.size() - 1) {
    std::ostringstream out;
    out << "JournalEnd record count " << end.record_count
        << " does not match the " << (records.size() - 1)
        << " records before it";
    report.mismatch = out.str();
    return report;
  }
  report.parsed = true;

  const auto& run_config = std::get<wire::RunConfigRecord>(records.front());
  EnvelopesByType recorded;
  (void)group_envelopes(journal, recorded);  // verified by parse_all above

  EventJournal replay_journal;
  JournalRecorder recorder(replay_journal);
  recorder.record_config(run_config);

  // A fresh telemetry registry for the fresh services: the replayed run
  // re-derives the replay-deterministic counter totals from scratch. The
  // recorder publishes a MetricSnapshotRecord only when the RECORDING has
  // one — appending a record the recording lacks would itself be a (false)
  // per-type divergence.
  telemetry::MetricsRegistry metrics;
  if (!recorded[static_cast<std::size_t>(wire::RecordType::kMetricSnapshot)]
           .empty()) {
    recorder.set_metrics(&metrics);
  }

  // Stage 1: the interaction layer, fed single-threaded in recorded order
  // (record-only wiring — stage 2 gets the RECORDED fleet events, so the
  // replayed dialogue outputs must not reach the coordinator too).
  interaction::InteractionServiceConfig dialogue_config =
      interaction_config_of(run_config);
  dialogue_config.metrics = &metrics;
  dialogue_config.recorder = options_.recorder;
  interaction::InteractionService dialogue(dialogue_config, options_.grammar);
  recorder.attach_interaction(dialogue, nullptr);
  for (const wire::AnyRecord& any : records) {
    const auto* observation = std::get_if<wire::ObservationRecord>(&any);
    if (observation == nullptr) continue;
    if (observation->abort != 0) {
      dialogue.abort_stream(observation->stream_id);
    } else {
      dialogue.inject_observation(
          observation->stream_id, observation->sequence,
          static_cast<signs::HumanSign>(observation->sign),
          observation->confidence);
    }
    ++report.observations_fed;
  }
  dialogue.drain();
  dialogue.stop();

  // Stage 2: the coordination layer, fed the recorded worker inputs.
  coordination::CoordinationConfig coordination_config =
      coordination_config_of(run_config);
  coordination_config.metrics = &metrics;
  coordination_config.recorder = options_.recorder;
  coordination::CoordinationService coordinator(coordination_config);
  recorder.attach_coordination(coordinator);
  for (const wire::AnyRecord& any : records) {
    const auto* event = std::get_if<wire::FleetEventRecord>(&any);
    if (event == nullptr) continue;
    coordinator.admit_recorded(from_wire(*event));
    ++report.fleet_events_fed;
  }
  coordinator.drain();
  coordinator.stop();

  // Finalize over the same stream ids the recording finalized over.
  std::vector<std::uint32_t> stream_ids;
  for (const wire::AnyRecord& any : records) {
    if (const auto* digest = std::get_if<wire::TranscriptDigestRecord>(&any)) {
      stream_ids.push_back(digest->stream_id);
    }
  }
  recorder.finalize(dialogue, std::move(stream_ids), coordinator);

  report.journal_bytes = replay_journal.bytes();

  EnvelopesByType replayed;
  if (!group_envelopes(report.journal_bytes, replayed)) {
    report.mismatch = "internal: replay journal has a malformed envelope";
    return report;
  }
  report.mismatch = first_mismatch(recorded, replayed);
  report.ok = report.mismatch.empty();
  return report;
}

}  // namespace hdc::protocol
