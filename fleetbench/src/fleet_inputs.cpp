#include "fleet_inputs.hpp"

#include <bit>
#include <map>
#include <random>
#include <stdexcept>
#include <tuple>

#include "interaction/command_grammar.hpp"
#include "signs/multi_drone_feed.hpp"

namespace fleetbench {

using namespace hdc;

FleetInputs::FleetInputs(const recognition::SaxSignRecognizer& reference,
                         std::size_t pairs)
    : fleet_(coordination::make_contention_fleet(
          2 * pairs, interaction::CommandGrammar::standard())) {
  const coordination::FleetScenarioOptions options;
  for (const coordination::PairExpectation& pair : fleet_.pairs) {
    fleet_.scripts[pair.winner].push_back(
        {signs::HumanSign::kNeutral, options.stagger_ticks, 0.0});
  }
  const signs::MultiDroneFeed feed(coordination::make_fleet_feed_config(fleet_));
  ticks_ = feed.script_period(0);
  for (std::size_t s = 0; s < streams(); ++s) {
    if (feed.script_period(s) != ticks_) {
      throw std::logic_error("contention pair scripts differ in length");
    }
  }

  // A frame is a pure function of its plan (sign + view); render each
  // distinct plan once. Equal plans give bit-equal doubles, so the key
  // cannot merge two different views.
  using Key = std::tuple<int, std::uint64_t, std::uint64_t, std::uint64_t>;
  std::map<Key, std::uint32_t> index;
  refs_.resize(streams() * ticks_);
  for (std::size_t s = 0; s < streams(); ++s) {
    for (std::uint64_t t = 0; t < ticks_; ++t) {
      const signs::FramePlan plan = feed.plan(s, t);
      const Key key{static_cast<int>(plan.sign),
                    std::bit_cast<std::uint64_t>(plan.view.altitude_m),
                    std::bit_cast<std::uint64_t>(plan.view.distance_m),
                    std::bit_cast<std::uint64_t>(plan.view.relative_azimuth_deg)};
      auto [it, inserted] =
          index.emplace(key, static_cast<std::uint32_t>(images_.size()));
      if (inserted) {
        images_.push_back(feed.render_frame(s, t));
        expected_.push_back(reference.recognize(images_.back()));
      }
      refs_[s * ticks_ + t] = {&images_[it->second], &expected_[it->second],
                               it->second};
    }
  }
}

bool same_payload(const recognition::RecognitionResult& a,
                  const recognition::RecognitionResult& b) {
  return a.accepted == b.accepted && a.sign == b.sign &&
         a.reject_reason == b.reject_reason &&
         std::bit_cast<std::uint64_t>(a.distance) ==
             std::bit_cast<std::uint64_t>(b.distance) &&
         std::bit_cast<std::uint64_t>(a.margin) ==
             std::bit_cast<std::uint64_t>(b.margin) &&
         a.sax_word == b.sax_word;
}

namespace {

/// Uniform double in [0, 1) from the top 53 bits (same on every platform,
/// unlike std::uniform_real_distribution).
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

Schedule::Schedule(std::size_t slots, std::size_t shards, double fps,
                   std::uint64_t ticks_per_drone, std::size_t pairs, double spread_s,
                   std::uint64_t seed)
    : slots_(slots),
      shards_(shards),
      ticks_(ticks_per_drone),
      interval_ns_(static_cast<std::int64_t>(1e9 / fps)),
      pair_span_ns_(static_cast<std::int64_t>(ticks_per_drone) * interval_ns_),
      slot_offset_ns_(slots),
      slot_round_(slots, 0),
      slot_live_drones_(slots, 0),
      class_order_(shards),
      phase_ns_(2 * pairs),
      pair_slot_(pairs, 0) {
  if (shards == 0 || slots < shards || slots % shards != 0 || slots > pairs) {
    throw std::invalid_argument(
        "Schedule: need slots a multiple of shards and at most pairs");
  }
  std::mt19937_64 rng(seed);
  for (std::int64_t& offset : slot_offset_ns_) {
    offset = static_cast<std::int64_t>(unit(rng) * spread_s * 1e9);
  }
  for (std::int64_t& phase : phase_ns_) {
    phase = static_cast<std::int64_t>(unit(rng) * static_cast<double>(interval_ns_));
  }
  for (std::size_t p = 0; p < pairs; ++p) {
    class_order_[p % shards].push_back(static_cast<std::uint32_t>(p));
  }
  for (std::vector<std::uint32_t>& order : class_order_) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
  }
  for (std::size_t k = 0; k < slots; ++k) start_pair(k, 0);
}

std::int64_t Schedule::pair_for(std::size_t slot, std::size_t round) const {
  // The slots of one class take that class's pairs in turn.
  const std::vector<std::uint32_t>& order = class_order_[slot % shards_];
  const std::size_t join = round * (slots_ / shards_) + slot / shards_;
  return join < order.size() ? static_cast<std::int64_t>(order[join]) : -1;
}

void Schedule::start_pair(std::size_t slot, std::size_t round) {
  const std::int64_t next = pair_for(slot, round);
  if (next < 0) return;
  const auto pair = static_cast<std::uint32_t>(next);
  const std::int64_t start =
      slot_offset_ns_[slot] + static_cast<std::int64_t>(round) * pair_span_ns_;
  pair_slot_[pair] = slot;
  slot_round_[slot] = round;
  slot_live_drones_[slot] = 2;
  for (std::uint32_t stream : {2 * pair, 2 * pair + 1}) {
    heap_.push({start + phase_ns_[stream], stream, 0});
  }
}

bool Schedule::next(SendEvent& out) {
  if (heap_.empty()) return false;
  const Cursor cursor = heap_.top();
  heap_.pop();
  out = {cursor.due_ns, cursor.stream, cursor.tick};
  if (cursor.tick + 1 < ticks_) {
    heap_.push({cursor.due_ns + interval_ns_, cursor.stream, cursor.tick + 1});
    return true;
  }
  // This drone is done; when its partner is too, the slot's next pair joins.
  const std::size_t slot = pair_slot_[cursor.stream / 2];
  if (--slot_live_drones_[slot] == 0) start_pair(slot, slot_round_[slot] + 1);
  return true;
}

}  // namespace fleetbench
