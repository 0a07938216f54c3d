#include "layer_probes.hpp"

#include <array>

#include "coordination/coordination_service.hpp"
#include "imaging/components.hpp"
#include "imaging/contour.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "imaging/signature.hpp"
#include "interaction/interaction_service.hpp"
#include "protocol/journal.hpp"
#include "protocol/wire.hpp"

namespace fleetbench {

using namespace hdc;

namespace {

constexpr int kStageReps = 3;
constexpr std::size_t kStages = 7;
constexpr std::array<const char*, kStages> kStageNames = {
    "imaging.preprocess", "imaging.threshold", "imaging.morphology",
    "imaging.components", "imaging.contour",   "imaging.signature",
    "recognition.match"};

/// The acceptance policy recognize_frame_into applies to a database answer
/// (mirrored here so the composed stages yield a comparable payload).
void accept(const recognition::RecognizerConfig& config,
            const std::optional<recognition::DatabaseMatch>& match,
            const std::string& sax_word, recognition::RecognitionResult& result) {
  if (!match) {
    result.reject_reason = recognition::RejectReason::kNoSilhouette;
    return;
  }
  result.sign = match->sign;
  result.distance = match->distance;
  result.margin = match->margin;
  result.sax_word = sax_word;
  if (match->distance > config.accept_distance) {
    result.reject_reason = recognition::RejectReason::kAboveThreshold;
  } else if (match->margin < config.min_margin) {
    result.reject_reason = recognition::RejectReason::kLowMargin;
  } else {
    result.accepted = true;
    result.reject_reason = recognition::RejectReason::kNone;
  }
  if (result.accepted && result.sign == signs::HumanSign::kNeutral) {
    result.accepted = false;
    result.reject_reason = recognition::RejectReason::kNone;
  }
}

/// One frame through the public stage calls, in recognize_frame_into's
/// order; stamps[k] .. stamps[k+1] bounds stage k.
recognition::RecognitionResult composed_frame(
    const recognition::RecognizerConfig& config,
    const recognition::SignDatabase& database, const imaging::GrayImage& frame,
    recognition::RecognizerScratch& scratch,
    std::array<std::int64_t, kStages + 1>& stamps) {
  recognition::RecognitionResult result;
  stamps.fill(0);
  stamps[0] = now_ns();
  const imaging::GrayImage* source = &frame;
  if (config.dark_silhouette) {
    imaging::invert_into(frame, scratch.working);
    source = &scratch.working;
  }
  if (config.preprocess_blur_sigma > 0.0) {
    imaging::gaussian_blur_into(*source, config.preprocess_blur_sigma,
                                scratch.blurred, scratch.blur_scratch);
    source = &scratch.blurred;
  }
  stamps[1] = now_ns();
  imaging::otsu_threshold_into(*source, scratch.binary);
  stamps[2] = now_ns();
  if (config.morphology_radius > 0) {
    imaging::close_into(scratch.binary, config.morphology_radius, scratch.morph,
                        scratch.morph_a, scratch.morph_b);
    imaging::open_into(scratch.morph, config.morphology_radius, scratch.binary,
                       scratch.morph_a, scratch.morph_b);
  }
  stamps[3] = now_ns();
  imaging::largest_component_mask_into(scratch.binary, config.min_silhouette_area,
                                       scratch.mask, scratch.labeling,
                                       scratch.label_scratch);
  stamps[4] = now_ns();
  imaging::trace_boundary_into(scratch.mask, scratch.contour);
  stamps[5] = now_ns();
  if (scratch.contour.empty()) {
    result.reject_reason = recognition::RejectReason::kNoSilhouette;
    return result;
  }
  if (scratch.contour.size() < 8) {
    result.reject_reason = recognition::RejectReason::kDegenerateShape;
    return result;
  }
  if (config.aspect_normalize) {
    imaging::normalize_contour_aspect_into(scratch.contour, 100.0,
                                           scratch.normalized_contour);
    imaging::centroid_distance_signature_into(scratch.normalized_contour,
                                              config.signature_samples,
                                              scratch.signature, scratch.resampled);
  } else {
    imaging::centroid_distance_signature_into(scratch.contour, config.signature_samples,
                                              scratch.signature, scratch.resampled);
  }
  stamps[6] = now_ns();
  if (scratch.signature.empty()) {
    result.reject_reason = recognition::RejectReason::kDegenerateShape;
    return result;
  }
  const std::optional<recognition::DatabaseMatch> match =
      database.query(scratch.signature, config.exact_verify, scratch.query);
  stamps[7] = now_ns();
  accept(config, match, scratch.query.word.text, result);
  return result;
}

}  // namespace

StageProbe probe_stages(const recognition::SaxSignRecognizer& reference,
                        const FleetInputs& inputs,
                        const std::vector<std::uint64_t>& counts, SpanLog* spans) {
  StageProbe probe;
  const recognition::RecognizerConfig& config = reference.config();
  recognition::RecognizerScratch composed_scratch;
  recognition::RecognizerScratch whole_scratch;
  recognition::RecognitionResult whole;
  std::array<double, kStages> stage_sum{};
  double whole_sum = 0.0;
  double weight_sum = 0.0;
  std::uint64_t probe_index = 0;
  for (std::size_t f = 0; f < inputs.distinct_frames(); ++f) {
    if (counts[f] == 0) continue;
    const imaging::GrayImage& frame = inputs.distinct_image(f);
    std::array<std::vector<double>, kStages> stage_ns;
    std::vector<double> whole_ns;
    for (int rep = 0; rep < kStageReps; ++rep) {
      // Interleave composed and whole calls so drift hits both alike.
      std::array<std::int64_t, kStages + 1> stamps{};
      const recognition::RecognitionResult composed = composed_frame(
          config, reference.database(), frame, composed_scratch, stamps);
      const std::int64_t whole_begin = now_ns();
      recognition::recognize_frame_into(config, reference.database(), frame,
                                        whole_scratch, whole);
      whole_ns.push_back(static_cast<double>(now_ns() - whole_begin));
      if (!same_payload(composed, whole) ||
          !same_payload(whole, inputs.distinct_expected(f))) {
        probe.failure = "composed stage calls do not reproduce recognize_frame_into's "
                        "payload on distinct frame " + std::to_string(f);
      }
      // A rejected frame stops early; its later stages cost nothing.
      std::int64_t last = stamps[0];
      for (std::size_t k = 0; k < kStages; ++k) {
        const std::int64_t end = stamps[k + 1] != 0 ? stamps[k + 1] : last;
        stage_ns[k].push_back(static_cast<double>(end - last));
        if (spans != nullptr && stamps[k + 1] != 0) {
          spans->add({kStageNames[k], "recognition.composed_frame", kNoStream,
                      probe_index, last, end});
        }
        last = end;
      }
      if (spans != nullptr) {
        spans->add({"recognition.composed_frame", "", kNoStream, probe_index,
                    stamps[0], last});
        spans->add({"recognition.recognize_frame_into", "", kNoStream, probe_index,
                    whole_begin, whole_begin + static_cast<std::int64_t>(whole_ns.back())});
      }
      ++probe_index;
    }
    const double weight = static_cast<double>(counts[f]);
    for (std::size_t k = 0; k < kStages; ++k) stage_sum[k] += weight * median(stage_ns[k]);
    whole_sum += weight * median(whole_ns);
    weight_sum += weight;
  }
  if (weight_sum == 0.0) {
    probe.failure = "no frames to probe";
    return probe;
  }
  const auto per_frame_ms = [&](double sum) { return sum / weight_sum / 1e6; };
  probe.preprocess_ms = per_frame_ms(stage_sum[0]);
  probe.threshold_ms = per_frame_ms(stage_sum[1]);
  probe.morphology_ms = per_frame_ms(stage_sum[2]);
  probe.components_ms = per_frame_ms(stage_sum[3]);
  probe.contour_ms = per_frame_ms(stage_sum[4]);
  probe.signature_ms = per_frame_ms(stage_sum[5]);
  probe.match_ms = per_frame_ms(stage_sum[6]);
  probe.frame_ms = per_frame_ms(whole_sum);
  return probe;
}

JournalProbe count_journal(const std::vector<std::uint8_t>& journal) {
  JournalProbe probe;
  std::vector<protocol::wire::AnyRecord> records;
  protocol::wire::WireError error;
  if (!protocol::wire::parse_all(journal, records, error)) {
    probe.failure = "journal does not parse: " + error.message;
    return probe;
  }
  probe.records = records.size();
  for (const protocol::wire::AnyRecord& record : records) {
    if (const auto* o = std::get_if<protocol::wire::ObservationRecord>(&record)) {
      ++probe.observations;
      if (o->abort == 0) ++probe.frames;
    } else if (std::holds_alternative<protocol::wire::FleetEventRecord>(record)) {
      ++probe.fleet_events;
    } else if (std::holds_alternative<protocol::wire::TransitionRecord>(record)) {
      ++probe.transitions;
    }
  }
  return probe;
}

JournalProbe probe_journal(const std::vector<std::uint8_t>& journal, int reps,
                           SpanLog* spans) {
  JournalProbe probe = count_journal(journal);
  if (!probe.failure.empty()) return probe;
  std::vector<protocol::wire::AnyRecord> records;
  protocol::wire::WireError error;
  std::vector<double> parse_ns, encode_ns, inject_ns, admit_ns;
  std::vector<std::uint8_t> encoded;
  encoded.reserve(journal.size());
  const auto span = [&](const char* name, std::int64_t begin, std::int64_t end,
                        int rep) {
    if (spans != nullptr) {
      spans->add({name, "", kNoStream, static_cast<std::uint64_t>(rep), begin, end});
    }
  };
  for (int rep = 0; rep < reps; ++rep) {
    records.clear();
    std::int64_t begin = now_ns();
    const bool parsed = protocol::wire::parse_all(journal, records, error);
    std::int64_t end = now_ns();
    if (!parsed) {
      probe.failure = "journal does not parse: " + error.message;
      return probe;
    }
    parse_ns.push_back(static_cast<double>(end - begin));
    span("protocol.parse_all", begin, end, rep);

    encoded.clear();
    begin = now_ns();
    for (const protocol::wire::AnyRecord& record : records) {
      protocol::wire::encode(encoded, record);
    }
    end = now_ns();
    encode_ns.push_back(static_cast<double>(end - begin));
    span("protocol.encode", begin, end, rep);
    if (encoded != journal) {
      probe.failure = "re-encoding the parsed journal does not reproduce its bytes";
    }

    const auto& config = std::get<protocol::wire::RunConfigRecord>(records.front());
    {
      interaction::InteractionService dialogue(protocol::interaction_config_of(config));
      begin = now_ns();
      for (const protocol::wire::AnyRecord& record : records) {
        const auto* o = std::get_if<protocol::wire::ObservationRecord>(&record);
        if (o == nullptr) continue;
        if (o->abort != 0) {
          dialogue.abort_stream(o->stream_id);
        } else {
          dialogue.inject_observation(o->stream_id, o->sequence,
                                      static_cast<signs::HumanSign>(o->sign),
                                      o->confidence);
        }
      }
      dialogue.drain();
      end = now_ns();
      inject_ns.push_back(static_cast<double>(end - begin));
      span("interaction.inject_replay", begin, end, rep);
    }
    {
      coordination::CoordinationService coordinator(
          protocol::coordination_config_of(config));
      begin = now_ns();
      for (const protocol::wire::AnyRecord& record : records) {
        const auto* e = std::get_if<protocol::wire::FleetEventRecord>(&record);
        if (e != nullptr) coordinator.admit_recorded(protocol::from_wire(*e));
      }
      coordinator.drain();
      end = now_ns();
      admit_ns.push_back(static_cast<double>(end - begin));
      span("coordination.admit_replay", begin, end, rep);
    }
  }
  const auto per = [](const std::vector<double>& ns, std::uint64_t n) {
    return n == 0 ? 0.0 : median(ns) / 1e3 / static_cast<double>(n);
  };
  probe.parse_us_per_record = per(parse_ns, probe.records);
  probe.encode_us_per_record = per(encode_ns, probe.records);
  probe.replay_us_per_observation = per(inject_ns, probe.observations);
  probe.replay_us_per_event = per(admit_ns, probe.fleet_events);
  return probe;
}

}  // namespace fleetbench
