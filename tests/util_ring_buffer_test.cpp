// BoundedRing: FIFO order, fill-to-capacity behaviour under each overflow
// policy (block / drop-oldest / reject), eviction/rejection accounting,
// close() semantics, batch pops, and cross-thread per-stream sequence
// monotonicity under a multi-producer load.
#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace hdc::util {
namespace {

TEST(BoundedRing, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedRing<int>(0), std::invalid_argument);
}

TEST(BoundedRing, FifoOrderSingleThread) {
  BoundedRing<int> ring(4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(ring.push(v), PushOutcome::kEnqueued);
  }
  EXPECT_EQ(ring.size(), 4u);
  int out = -1;
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_EQ(ring.size(), 0u);
}

TEST(BoundedRing, WrapAroundKeepsFifoOrder) {
  BoundedRing<int> ring(3);
  int out = -1;
  // Push/pop interleaved so head/tail wrap several times.
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(ring.push(2 * round), PushOutcome::kEnqueued);
    EXPECT_EQ(ring.push(2 * round + 1), PushOutcome::kEnqueued);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 2 * round);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 2 * round + 1);
  }
}

TEST(BoundedRing, PoppedCountAdvancesOnBothPopPaths) {
  // popped_count() is the stalled-shard watchdog's liveness signal: it
  // must advance once per item taken by pop() AND by pop_batch() — by the
  // batch size, not once per call — and never on a closed-and-drained
  // return, an eviction, or a rejection.
  BoundedRing<int> ring(4, OverflowPolicy::kDropOldest);
  EXPECT_EQ(ring.popped_count(), 0u);
  for (int v = 0; v < 4; ++v) ring.push(v);
  int out = -1;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(ring.popped_count(), 1u);
  int batch[4] = {};
  ASSERT_EQ(ring.pop_batch(batch, 1), 1u);
  EXPECT_EQ(ring.popped_count(), 2u);
  // Evictions churn the ring's contents but are not pops.
  ring.push(4);
  ring.push(5);
  ring.push(6);  // full again -> evicts the oldest
  const std::uint64_t before = ring.popped_count();
  EXPECT_EQ(before, 2u);
  // One batch takes everything queued; the count moves by its size.
  ASSERT_EQ(ring.pop_batch(batch, 4), 4u);
  EXPECT_EQ(ring.popped_count(), before + 4);
  // Closed and drained: 0, and no advance.
  ring.close();
  EXPECT_EQ(ring.pop_batch(batch, 4), 0u);
  EXPECT_EQ(ring.popped_count(), before + 4);
}

TEST(BoundedRing, PopBatchTakesAtMostMaxInFifoOrder) {
  BoundedRing<int> ring(8);
  for (int v = 0; v < 7; ++v) ring.push(v);
  int batch[8] = {};
  // Caps at max, never waits for more than is queued.
  ASSERT_EQ(ring.pop_batch(batch, 3), 3u);
  EXPECT_EQ(batch[0], 0);
  EXPECT_EQ(batch[1], 1);
  EXPECT_EQ(batch[2], 2);
  ASSERT_EQ(ring.pop_batch(batch, 8), 4u);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(batch[k], 3 + k);
  EXPECT_EQ(ring.size(), 0u);
  // A batch that spans the wrap-around point keeps order too.
  for (int v = 10; v < 16; ++v) ring.push(v);
  ASSERT_EQ(ring.pop_batch(batch, 8), 6u);
  for (int k = 0; k < 6; ++k) EXPECT_EQ(batch[k], 10 + k);
}

TEST(BoundedRing, PopBatchReturnsZeroOnlyWhenClosedAndDrained) {
  BoundedRing<int> ring(4);
  int batch[4] = {};
  // A consumer blocked on an empty ring wakes for one item, with 1.
  std::size_t got = 0;
  std::thread consumer([&] { got = ring.pop_batch(batch, 4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.push(7);
  consumer.join();
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(batch[0], 7);

  // Items queued before close() still drain, batch by batch...
  for (int v = 0; v < 3; ++v) ring.push(v);
  ring.close();
  EXPECT_EQ(ring.pop_batch(batch, 2), 2u);
  EXPECT_EQ(ring.pop_batch(batch, 2), 1u);
  EXPECT_EQ(batch[0], 2);
  // ...and only then does the call report closed-and-drained.
  EXPECT_EQ(ring.pop_batch(batch, 2), 0u);
  EXPECT_EQ(ring.pop_batch(batch, 2), 0u);

  // A consumer blocked on an empty ring wakes on close(), with 0.
  BoundedRing<int> idle(2);
  std::thread waiter([&] { got = idle.pop_batch(batch, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  idle.close();
  waiter.join();
  EXPECT_EQ(got, 0u);
}

TEST(BoundedRing, PopBatchWakesEveryProducerItFreedSlotsFor) {
  // Two producers blocked on a full kBlock ring; ONE batch frees both
  // slots, and both must complete without any further pop.
  BoundedRing<int> ring(2, OverflowPolicy::kBlock);
  ring.push(1);
  ring.push(2);
  std::atomic<int> returned{0};
  std::vector<std::thread> producers;
  for (int v = 3; v <= 4; ++v) {
    producers.emplace_back([&, v] {
      EXPECT_EQ(ring.push(v), PushOutcome::kEnqueued);
      returned.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(returned.load(), 0) << "kBlock on a full ring must wait";
  int batch[2] = {};
  ASSERT_EQ(ring.pop_batch(batch, 2), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (returned.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(returned.load(), 2) << "a producer missed the batch's wakeup";
  EXPECT_EQ(ring.size(), 2u);
  ring.close();  // releases a producer a lost wakeup left blocked
  for (std::thread& t : producers) t.join();
}

TEST(BoundedRing, PopBatchLeavesEvictionAndRejectionCountersAlone) {
  {
    BoundedRing<int> ring(2, OverflowPolicy::kDropOldest);
    for (int v = 0; v < 4; ++v) ring.push(v);  // evicts 0 and 1
    EXPECT_EQ(ring.evicted_count(), 2u);
    int batch[2] = {};
    ASSERT_EQ(ring.pop_batch(batch, 2), 2u);
    EXPECT_EQ(batch[0], 2);
    EXPECT_EQ(batch[1], 3);
    EXPECT_EQ(ring.evicted_count(), 2u);
    EXPECT_EQ(ring.rejected_count(), 0u);
  }
  {
    BoundedRing<int> ring(2, OverflowPolicy::kReject);
    for (int v = 0; v < 4; ++v) ring.push(v);  // refuses 2 and 3
    EXPECT_EQ(ring.rejected_count(), 2u);
    int batch[2] = {};
    ASSERT_EQ(ring.pop_batch(batch, 2), 2u);
    EXPECT_EQ(batch[0], 0);
    EXPECT_EQ(batch[1], 1);
    EXPECT_EQ(ring.rejected_count(), 2u);
    EXPECT_EQ(ring.evicted_count(), 0u);
    EXPECT_EQ(ring.push(5), PushOutcome::kEnqueued);  // space freed
  }
}

TEST(BoundedRing, DropOldestEvictsExactlyTheOldest) {
  BoundedRing<int> ring(3, OverflowPolicy::kDropOldest);
  for (int v = 0; v < 3; ++v) ring.push(v);
  // Ring holds {0,1,2}; pushing 3 and 4 must evict 0 then 1.
  int evicted = -1;
  EXPECT_EQ(ring.push(3, &evicted), PushOutcome::kEvictedOldest);
  EXPECT_EQ(evicted, 0);
  EXPECT_EQ(ring.push(4, &evicted), PushOutcome::kEvictedOldest);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(ring.evicted_count(), 2u);
  EXPECT_EQ(ring.rejected_count(), 0u);
  // Survivors are the newest three, still in order.
  int out = -1;
  for (const int expect : {2, 3, 4}) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, expect);
  }
}

TEST(BoundedRing, RejectPolicyRefusesWhenFullAndCounts) {
  BoundedRing<int> ring(2, OverflowPolicy::kReject);
  EXPECT_EQ(ring.push(1), PushOutcome::kEnqueued);
  EXPECT_EQ(ring.push(2), PushOutcome::kEnqueued);
  EXPECT_EQ(ring.push(3), PushOutcome::kRejected);
  EXPECT_EQ(ring.push(4), PushOutcome::kRejected);
  EXPECT_EQ(ring.rejected_count(), 2u);
  EXPECT_EQ(ring.evicted_count(), 0u);
  EXPECT_EQ(ring.size(), 2u);
  // Space frees -> pushes succeed again.
  int out = -1;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(ring.push(5), PushOutcome::kEnqueued);
}

TEST(BoundedRing, BlockPolicyWaitsForSpace) {
  BoundedRing<int> ring(1, OverflowPolicy::kBlock);
  EXPECT_EQ(ring.push(1), PushOutcome::kEnqueued);
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(ring.push(2), PushOutcome::kEnqueued);  // blocks until pop
    second_pushed.store(true);
  });
  // The producer cannot complete until the consumer frees the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  int out = -1;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedRing, CloseWakesBlockedProducerWithClosed) {
  BoundedRing<int> ring(1, OverflowPolicy::kBlock);
  EXPECT_EQ(ring.push(1), PushOutcome::kEnqueued);
  std::atomic<bool> woke{false};
  std::thread producer([&] {
    EXPECT_EQ(ring.push(2), PushOutcome::kClosed);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.close();
  producer.join();
  EXPECT_TRUE(woke.load());
  // The consumer still drains what was queued before close...
  int out = -1;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  // ...then pop reports closed-and-empty.
  EXPECT_FALSE(ring.pop(out));
  // And any further push is refused.
  EXPECT_EQ(ring.push(9), PushOutcome::kClosed);
}

TEST(BoundedRing, CrossThreadPerStreamSequenceMonotonicity) {
  // 4 producers, one stream each, pushing numbered items through a small
  // ring under kBlock (lossless). The single consumer must observe every
  // stream's sequence strictly increasing and contiguous — FIFO admission
  // plus per-producer program order is exactly the guarantee the
  // PerceptionService ordering contract builds on.
  struct Item {
    std::uint32_t stream{0};
    std::uint64_t sequence{0};
  };
  constexpr std::size_t kStreams = 4;
  constexpr std::uint64_t kPerStream = 500;
  BoundedRing<Item> ring(8, OverflowPolicy::kBlock);

  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&ring, s] {
      for (std::uint64_t i = 0; i < kPerStream; ++i) {
        EXPECT_EQ(ring.push({s, i}), PushOutcome::kEnqueued);
      }
    });
  }

  std::vector<std::uint64_t> next_expected(kStreams, 0);
  Item item;
  for (std::uint64_t n = 0; n < kStreams * kPerStream; ++n) {
    ASSERT_TRUE(ring.pop(item));
    ASSERT_LT(item.stream, kStreams);
    EXPECT_EQ(item.sequence, next_expected[item.stream])
        << "stream " << item.stream << " out of order";
    ++next_expected[item.stream];
  }
  for (std::thread& t : producers) t.join();
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(next_expected[s], kPerStream);
  }
  EXPECT_EQ(ring.size(), 0u);
}

TEST(BoundedRing, PopBatchKeepsPerStreamOrderAcrossBatchBoundaries) {
  // The CrossThread test above, consumed through pop_batch with a cap
  // that does not divide the ring size, so batches start and end at
  // arbitrary points of the wrap and of each producer's run.
  struct Item {
    std::uint32_t stream{0};
    std::uint64_t sequence{0};
  };
  constexpr std::size_t kStreams = 4;
  constexpr std::uint64_t kPerStream = 2000;
  BoundedRing<Item> ring(8, OverflowPolicy::kBlock);

  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&ring, s] {
      for (std::uint64_t i = 0; i < kPerStream; ++i) {
        EXPECT_EQ(ring.push({s, i}), PushOutcome::kEnqueued);
      }
    });
  }

  std::vector<std::uint64_t> next_expected(kStreams, 0);
  Item batch[3];
  std::uint64_t received = 0;
  std::size_t batches = 0;
  while (received < kStreams * kPerStream) {
    const std::size_t n = ring.pop_batch(batch, 3);
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, 3u);
    ++batches;
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_LT(batch[k].stream, kStreams);
      EXPECT_EQ(batch[k].sequence, next_expected[batch[k].stream])
          << "stream " << batch[k].stream << " out of order";
      ++next_expected[batch[k].stream];
    }
    received += n;
  }
  for (std::thread& t : producers) t.join();
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(next_expected[s], kPerStream);
  }
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.popped_count(), kStreams * kPerStream);
  EXPECT_GE(batches, kStreams * kPerStream / 3);
}

TEST(BoundedRing, DropOldestUnderConcurrentLoadAccountsEveryItem) {
  // Overload a tiny drop-oldest ring from several producers while the
  // consumer drains slowly-ish: every pushed item is either delivered or
  // counted evicted, and delivered items stay per-stream monotonic
  // (drop-oldest may skip sequences but never reorders).
  struct Item {
    std::uint32_t stream{0};
    std::uint64_t sequence{0};
  };
  constexpr std::size_t kStreams = 3;
  constexpr std::uint64_t kPerStream = 400;
  BoundedRing<Item> ring(4, OverflowPolicy::kDropOldest);

  std::atomic<std::uint64_t> evicted_seen{0};
  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kPerStream; ++i) {
        Item evicted;
        if (ring.push({s, i}, &evicted) == PushOutcome::kEvictedOldest) {
          evicted_seen.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::int64_t> last_seen(kStreams, -1);
  std::uint64_t delivered = 0;
  Item item;
  std::thread consumer([&] {
    while (ring.pop(item)) {
      ASSERT_LT(item.stream, kStreams);
      EXPECT_GT(static_cast<std::int64_t>(item.sequence), last_seen[item.stream]);
      last_seen[item.stream] = static_cast<std::int64_t>(item.sequence);
      ++delivered;
    }
  });
  for (std::thread& t : producers) t.join();
  ring.close();
  consumer.join();

  EXPECT_EQ(delivered + ring.evicted_count(), kStreams * kPerStream);
  EXPECT_EQ(evicted_seen.load(), ring.evicted_count());
  EXPECT_EQ(ring.rejected_count(), 0u);
}

TEST(BoundedRing, SetPolicyWakesBlockedProducerIntoNewPolicy) {
  BoundedRing<int> ring(1, OverflowPolicy::kBlock);
  EXPECT_EQ(ring.push(1), PushOutcome::kEnqueued);

  std::atomic<bool> producer_returned{false};
  PushOutcome outcome = PushOutcome::kEnqueued;
  int evicted = 0;
  std::thread producer([&] {
    outcome = ring.push(2, &evicted);
    producer_returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(producer_returned.load(std::memory_order_acquire))
      << "kBlock on a full ring must wait";

  // Dynamic backpressure flips the policy: the waiting producer must wake
  // and resolve under kDropOldest (evicting the oldest, not waiting on).
  ring.set_policy(OverflowPolicy::kDropOldest);
  producer.join();
  EXPECT_EQ(outcome, PushOutcome::kEvictedOldest);
  EXPECT_EQ(evicted, 1);

  int out = 0;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_EQ(ring.policy(), OverflowPolicy::kDropOldest);
}

TEST(BoundedRing, TryPushNeverBlocksUnderAnyPolicy) {
  // kBlock + full: refused immediately (this is what lets two workers feed
  // each other's rings without a blocking cycle). NOT counted as a policy
  // rejection — the caller owns the retry.
  {
    BoundedRing<int> ring(1, OverflowPolicy::kBlock);
    EXPECT_EQ(ring.try_push(1), PushOutcome::kEnqueued);
    EXPECT_EQ(ring.try_push(2), PushOutcome::kRejected);
    EXPECT_EQ(ring.rejected_count(), 0u);
    int out = 0;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_EQ(ring.try_push(3), PushOutcome::kEnqueued);
  }
  // kDropOldest + full: evicts, same as push().
  {
    BoundedRing<int> ring(1, OverflowPolicy::kDropOldest);
    EXPECT_EQ(ring.try_push(1), PushOutcome::kEnqueued);
    int evicted = 0;
    EXPECT_EQ(ring.try_push(2, &evicted), PushOutcome::kEvictedOldest);
    EXPECT_EQ(evicted, 1);
  }
  // kReject + full: refused AND counted, same as push().
  {
    BoundedRing<int> ring(1, OverflowPolicy::kReject);
    EXPECT_EQ(ring.try_push(1), PushOutcome::kEnqueued);
    EXPECT_EQ(ring.try_push(2), PushOutcome::kRejected);
    EXPECT_EQ(ring.rejected_count(), 1u);
  }
  // Closed: kClosed, like push().
  {
    BoundedRing<int> ring(2, OverflowPolicy::kBlock);
    ring.close();
    EXPECT_EQ(ring.try_push(1), PushOutcome::kClosed);
  }
}

}  // namespace
}  // namespace hdc::util
