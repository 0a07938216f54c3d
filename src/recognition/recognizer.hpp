// SaxSignRecognizer — the paper's recognition pipeline (§IV), end to end:
//
//   camera frame -> (invert, blur) -> Otsu threshold -> morphology ->
//   largest component -> Moore contour -> centroid-distance signature ->
//   z-normalise -> PAA -> SAX word -> string-database nearest match
//
// Rotation invariance comes from circular-shift matching of the periodic
// contour signature; real-time behaviour from the symbolic representation
// (dimensionality w << n) with optional exact verification. Per-stage wall
// times are recorded to reproduce the paper's latency measurements (T-LAT).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "imaging/bit_raster.hpp"
#include "imaging/components.hpp"
#include "imaging/contour.hpp"
#include "imaging/image.hpp"
#include "recognition/sign_database.hpp"
#include "telemetry/stage_names.hpp"
#include "util/stopwatch.hpp"

namespace hdc::recognition {

/// Why a frame produced no accepted sign.
enum class RejectReason : std::uint8_t {
  kNone = 0,         ///< accepted
  kNoSilhouette,     ///< nothing above threshold / too small
  kDegenerateShape,  ///< contour too short for a signature
  kAboveThreshold,   ///< nearest template too far (paper's "erratic" zone)
  kLowMargin,        ///< two templates nearly tied — ambiguous
};

[[nodiscard]] constexpr const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "None";
    case RejectReason::kNoSilhouette: return "NoSilhouette";
    case RejectReason::kDegenerateShape: return "DegenerateShape";
    case RejectReason::kAboveThreshold: return "AboveThreshold";
    case RejectReason::kLowMargin: return "LowMargin";
  }
  return "?";
}

/// Pipeline configuration.
struct RecognizerConfig {
  std::size_t signature_samples{128};
  std::size_t word_length{16};   ///< PAA segments (tunable, ref [22])
  std::size_t alphabet{9};       ///< SAX alphabet size (tunable, ref [22])
  double accept_distance{6.5};   ///< max distance for acceptance
  double min_margin{0.35};       ///< min (runner-up - best) separation
  std::size_t min_silhouette_area{120};  ///< pixels
  /// Off by default: the Otsu + morphology chain is robust on clean frames,
  /// and heavy blur thins distant limbs out of the silhouette. Enable
  /// (e.g. 1.0) when frames carry strong sensor noise.
  double preprocess_blur_sigma{0.0};
  int morphology_radius{1};
  bool exact_verify{true};       ///< re-rank SAX candidates exactly
  bool dark_silhouette{true};    ///< signaller darker than background
  /// Rescale the contour bounding box to a square before the signature.
  /// Cancels depression-angle foreshortening across the 2-5 m altitude
  /// band; disable only for the ablation that measures its effect.
  bool aspect_normalize{true};
};

/// Full result of one frame.
struct RecognitionResult {
  bool accepted{false};
  signs::HumanSign sign{signs::HumanSign::kNeutral};
  RejectReason reject_reason{RejectReason::kNoSilhouette};
  double distance{0.0};
  double margin{0.0};
  std::string sax_word;
  double total_ms{0.0};
};

/// Intermediate artefacts for debugging/visualisation (requested per call).
struct RecognitionTrace {
  imaging::BinaryImage silhouette;
  imaging::Contour contour;
  timeseries::Series raw_signature;
  timeseries::Series normalized_signature;
};

/// Every buffer the per-frame pipeline needs, owned by the caller so the hot
/// path performs no heap allocation after the first frame of a given size.
/// One scratch per worker thread; a scratch must never be shared between
/// concurrently processed frames.
struct RecognizerScratch {
  imaging::GrayImage working;        ///< inverted frame
  imaging::GrayImage blurred;        ///< optional blur output
  imaging::GrayImage blur_scratch;   ///< box-pass ping-pong
  imaging::BinaryImage binary;       ///< threshold / morphology result
  imaging::BinaryImage morph;        ///< morphology intermediate
  imaging::BitRaster morph_a;        ///< packed-pass scratch
  imaging::BitRaster morph_b;        ///< packed-pass scratch
  imaging::BinaryImage mask;         ///< largest-component silhouette
  imaging::Labeling labeling;
  imaging::LabelScratch label_scratch;
  imaging::Contour contour;
  imaging::Contour normalized_contour;
  imaging::Contour resampled;
  timeseries::Series signature;
  /// Database-query buffers, incl. the exact-verify rotation-match slots —
  /// the template-side doubled buffers live in the (shared, immutable)
  /// SignDatabase itself, so N scratches never duplicate them.
  QueryScratch query;
  /// Optional prepare/match/finalize span handles (disarmed by default —
  /// recording through a disarmed handle is a no-op branch). Engines that
  /// wire a telemetry::MetricsRegistry arm them once per worker scratch.
  telemetry::RecognitionStageMetrics metrics;
};

/// The full single-frame pipeline writing into caller-owned buffers. This is
/// the one canonical implementation: SaxSignRecognizer::recognize delegates
/// here with a fresh scratch (so its results are bit-identical to the batch
/// engine's, which reuses scratches). `timers`/`trace` may be null; both
/// cost extra when set, so the batch hot path passes null.
void recognize_frame_into(const RecognizerConfig& config, const SignDatabase& database,
                          const imaging::GrayImage& frame, RecognizerScratch& scratch,
                          RecognitionResult& result, util::StageTimers* timers = nullptr,
                          RecognitionTrace* trace = nullptr);

/// Buffers for recognize_frames_micro_batch: per-frame signature copies (the
/// imaging stages share ONE RecognizerScratch, so each frame's signature must
/// survive until the batched database query) plus the multi-query scratch.
/// Same warm-reuse contract as RecognizerScratch; one per worker.
struct MicroBatchScratch {
  MultiQueryScratch query;
  std::vector<timeseries::Series> raw_signatures;  ///< slot j = pending frame j
  std::vector<const timeseries::Series*> signature_ptrs;
  std::vector<std::size_t> pending;  ///< frame indices that reached the query stage
  std::vector<std::optional<DatabaseMatch>> matches;
  std::vector<double> prepare_ms;  ///< per-pending-frame stage 1-6 wall time
  /// Wall time of the most recent recognize_frames_micro_batch call. The
  /// per-frame total_ms values of that call sum to exactly this (the
  /// attribution invariant pinned in tests/recognition_micro_batch_test.cpp).
  double last_batch_ms{0.0};
};

/// Micro-batched recognition: runs the imaging stages (1-6) of each frame in
/// turn through `scratch`, then answers every frame that produced a signature
/// with ONE SignDatabase::query_many call — the exact-verify pass walks the
/// template panels once per micro-batch instead of once per frame. Writes
/// *results[i] for every frame. Every payload field (accepted / sign /
/// reject_reason / distance / margin / sax_word) is bit-identical to calling
/// recognize_frame_into on each frame in order with the same scratch; only
/// total_ms differs. Timing attribution: each frame keeps its own measured
/// stage 1-6 wall time and the remaining batch wall time (the shared query
/// plus finalize/loop overhead) is split evenly across the frames that
/// reached the query, so the per-frame totals sum to the batch wall time
/// (exposed as MicroBatchScratch::last_batch_ms). Callers bound `count`
/// (the batching window) to keep single-frame latency bounded — see
/// BatchRecognizer / PerceptionService.
void recognize_frames_micro_batch(const RecognizerConfig& config,
                                  const SignDatabase& database,
                                  const imaging::GrayImage* const* frames,
                                  std::size_t count, RecognizerScratch& scratch,
                                  MicroBatchScratch& micro,
                                  RecognitionResult* const* results);

class SaxSignRecognizer {
 public:
  /// Builds the recogniser and its canonical database. `db_options.render`
  /// should match the camera the drone actually carries.
  SaxSignRecognizer(const RecognizerConfig& config,
                    const DatabaseBuildOptions& db_options);

  /// Builds with an externally constructed database (must use a compatible
  /// encoder configuration). Wraps the value in a fresh shared handle.
  SaxSignRecognizer(const RecognizerConfig& config, SignDatabase database);

  /// Builds against an existing shared database handle — no copy. The
  /// database is immutable after build, so any number of recognisers,
  /// batch engines and perception shards may share one instance.
  SaxSignRecognizer(const RecognizerConfig& config,
                    std::shared_ptr<const SignDatabase> database);

  /// Processes one frame. When `trace` is non-null, intermediates are
  /// copied out (costs extra; keep null on the hot path).
  [[nodiscard]] RecognitionResult recognize(const imaging::GrayImage& frame,
                                            RecognitionTrace* trace = nullptr) const;

  /// The silhouette signature of a frame without matching (used by the
  /// uniqueness study and tests).
  [[nodiscard]] timeseries::Series extract_signature(const imaging::GrayImage& frame) const;

  [[nodiscard]] const RecognizerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SignDatabase& database() const noexcept { return *database_; }

  /// The shared handle itself, so callers can fan the one immutable
  /// database out to other engines without copying templates.
  [[nodiscard]] const std::shared_ptr<const SignDatabase>& database_ptr()
      const noexcept {
    return database_;
  }

  /// Accumulated per-stage timings across all recognize() calls
  /// (preprocess / threshold / morphology / component / contour / signature
  /// / sax+search). Reset with timers().reset().
  [[nodiscard]] util::StageTimers& timers() const noexcept { return timers_; }

 private:
  RecognizerConfig config_;
  std::shared_ptr<const SignDatabase> database_;
  mutable util::StageTimers timers_;
};

/// Encoder matching a RecognizerConfig (shared by DB builders and tests).
[[nodiscard]] inline timeseries::SaxEncoder make_encoder(const RecognizerConfig& config) {
  return timeseries::SaxEncoder(
      timeseries::SaxConfig(config.word_length, config.alphabet));
}

}  // namespace hdc::recognition
