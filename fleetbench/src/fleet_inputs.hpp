// The benchmark's inputs, all derived from the workload seed:
//   - FleetInputs: a coordination::make_contention_fleet of contention
//     pairs (streams 2p and 2p+1 negotiate with human p for cell p), every
//     distinct camera frame rendered once, and the sequential
//     SaxSignRecognizer's result for each distinct frame (the bit-identity
//     reference for every delivered payload).
//   - Schedule: the loadgen. `slots` pairs are active at once; when a
//     pair's scripts end, the next pair in a seeded join order takes its
//     slot. Every drone sends one frame per 1/fps from a seeded phase.
//     Paced runs sleep until each due time; closed-loop runs send the same
//     sequence as fast as the service admits.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "coordination/fleet_scenario.hpp"
#include "imaging/image.hpp"
#include "recognition/recognizer.hpp"

namespace fleetbench {

/// One scheduled camera frame: what to submit and what recognition must
/// deliver for it.
struct FrameRef {
  const hdc::imaging::GrayImage* image{nullptr};
  const hdc::recognition::RecognitionResult* expected{nullptr};
  std::uint32_t distinct{0};  ///< index of the distinct frame
};

class FleetInputs {
 public:
  /// Builds `pairs` contention pairs. The winner's script is padded with
  /// neutral frames to the loser's (staggered) length, so both drones of a
  /// pair stream for the same number of ticks and a slot's offered load
  /// stays constant while pairs come and go.
  FleetInputs(const hdc::recognition::SaxSignRecognizer& reference,
              std::size_t pairs);

  FleetInputs(const FleetInputs&) = delete;
  FleetInputs& operator=(const FleetInputs&) = delete;

  [[nodiscard]] std::size_t pairs() const noexcept { return fleet_.pairs.size(); }
  [[nodiscard]] std::size_t streams() const noexcept { return fleet_.drones.size(); }
  [[nodiscard]] std::uint64_t ticks_per_drone() const noexcept { return ticks_; }
  [[nodiscard]] const hdc::coordination::ContentionFleet& fleet() const noexcept {
    return fleet_;
  }
  [[nodiscard]] const FrameRef& frame(std::uint32_t stream, std::uint64_t tick) const {
    return refs_[static_cast<std::size_t>(stream) * ticks_ + tick];
  }
  [[nodiscard]] std::size_t distinct_frames() const noexcept { return images_.size(); }
  [[nodiscard]] const hdc::imaging::GrayImage& distinct_image(std::size_t i) const {
    return images_[i];
  }
  [[nodiscard]] const hdc::recognition::RecognitionResult& distinct_expected(
      std::size_t i) const {
    return expected_[i];
  }

 private:
  hdc::coordination::ContentionFleet fleet_;
  std::uint64_t ticks_{0};
  std::deque<hdc::imaging::GrayImage> images_;  ///< deque: stable addresses
  std::deque<hdc::recognition::RecognitionResult> expected_;
  std::vector<FrameRef> refs_;  ///< [stream * ticks_ + tick]
};

/// True when two results carry the same payload (everything but the
/// timing field total_ms), compared bit for bit.
[[nodiscard]] bool same_payload(const hdc::recognition::RecognitionResult& a,
                                const hdc::recognition::RecognitionResult& b);

struct SendEvent {
  std::int64_t due_ns{0};  ///< offset from the schedule's start
  std::uint32_t stream{0};
  std::uint32_t tick{0};
};

class Schedule {
 public:
  /// Pairs 0..pairs-1 join `slots` slots in a seeded order; slot k's
  /// first pair starts at a seeded offset in [0, spread_s), each drone adds
  /// a seeded phase in [0, 1/fps). Slot k only takes pairs p with
  /// p % shards == k % shards: PerceptionService routes stream s to shard
  /// s % shards, so with `slots` a multiple of `shards` every shard serves
  /// the same number of active streams whatever the seed, and the seed
  /// moves timing, not the shard load.
  Schedule(std::size_t slots, std::size_t shards, double fps,
           std::uint64_t ticks_per_drone, std::size_t pairs, double spread_s,
           std::uint64_t seed);

  /// The next send in due order; false once every pair has been sent.
  [[nodiscard]] bool next(SendEvent& out);

  /// The pair slot `slot` runs in its `round`-th turn, or -1 when its
  /// shard class has no pairs left (the closed loop walks slots by hand).
  [[nodiscard]] std::int64_t pair_for(std::size_t slot, std::size_t round) const;

 private:
  struct Cursor {
    std::int64_t due_ns;
    std::uint32_t stream;
    std::uint32_t tick;
    bool operator>(const Cursor& other) const {
      return due_ns != other.due_ns ? due_ns > other.due_ns : stream > other.stream;
    }
  };
  void start_pair(std::size_t slot, std::size_t round);

  std::size_t slots_;
  std::size_t shards_;
  std::uint64_t ticks_;
  std::int64_t interval_ns_;
  std::int64_t pair_span_ns_;
  std::vector<std::int64_t> slot_offset_ns_;
  std::vector<std::size_t> slot_round_;
  std::vector<int> slot_live_drones_;
  /// Seeded pair order per shard class (pairs p with p % shards == c).
  std::vector<std::vector<std::uint32_t>> class_order_;
  std::vector<std::int64_t> phase_ns_;     ///< per stream
  std::vector<std::size_t> pair_slot_;
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<>> heap_;
};

}  // namespace fleetbench
