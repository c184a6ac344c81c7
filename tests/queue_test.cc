#include "common/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace bohm {
namespace {

TEST(MpscQueueTest, PushPopSingleThread) {
  MpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
}

TEST(MpscQueueTest, EmptyPopFails) {
  MpscQueue<int> q(8);
  int v;
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(MpscQueueTest, FullPushFails) {
  MpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
}

TEST(MpscQueueTest, FifoWithinCapacityCycles) {
  MpscQueue<int> q(4);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.TryPush(round * 4 + i));
    for (int i = 0; i < 4; ++i) {
      int v;
      ASSERT_TRUE(q.TryPop(&v));
      EXPECT_EQ(v, round * 4 + i);
    }
  }
}

TEST(MpscQueueTest, MovesUniquePtrs) {
  MpscQueue<std::unique_ptr<int>> q(4);
  q.Push(std::make_unique<int>(5));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(*out, 5);
}

TEST(MpscQueueTest, ConcurrentProducersArriveOnceInPushOrder) {
  // 4 producers push 5000 values each through a small ring, so cells are
  // reused many times while producers wait on them; the one consumer
  // drains it. Each producer's values must arrive exactly once and in the
  // order it pushed them (no loss, no duplication, per-producer FIFO).
  constexpr int kProducers = 4, kPerProducer = 5000;
  MpscQueue<uint64_t> q(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(static_cast<uint64_t>(p * kPerProducer + i));
      }
    });
  }
  const uint64_t total = static_cast<uint64_t>(kProducers) * kPerProducer;
  std::vector<uint64_t> next(kProducers, 0);  // next index, per producer
  uint64_t consumed_sum = 0, misplaced = 0;
  for (uint64_t consumed = 0; consumed < total;) {
    uint64_t v;
    if (!q.TryPop(&v)) {
      std::this_thread::yield();
      continue;
    }
    // Keep draining on a mismatch so the producers can finish.
    const uint64_t p = v / kPerProducer;
    if (p < next.size() && v % kPerProducer == next[p]) {
      ++next[p];
    } else {
      ++misplaced;
    }
    consumed_sum += v;
    ++consumed;
  }
  for (auto& t : producers) t.join();
  uint64_t v;
  EXPECT_FALSE(q.TryPop(&v));
  EXPECT_EQ(misplaced, 0u) << "values out of order, duplicated or lost";
  for (uint64_t n : next) EXPECT_EQ(n, static_cast<uint64_t>(kPerProducer));
  EXPECT_EQ(consumed_sum, total * (total - 1) / 2);
}

// ---------------------------------------------------------------------------
// SpscQueue — the ring carrying encoded batches from the Bohm sequencer
// to the log-writer thread (src/log/log_writer.h).
// ---------------------------------------------------------------------------

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.Empty());
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueueTest, EmptyPopFailsFullPushFails) {
  SpscQueue<int> q(4);
  int v;
  EXPECT_FALSE(q.TryPop(&v));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
  // Draining one slot re-admits exactly one push (cached-index refresh).
  ASSERT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.TryPush(99));
  EXPECT_FALSE(q.TryPush(100));
}

TEST(SpscQueueTest, FifoAcrossWraparoundBoundary) {
  // Enough cycles through a tiny ring to cross the capacity boundary many
  // times — and, with the offset start, to exercise every head/tail
  // alignment of the pow2 mask. Staying FIFO across wraparound is the
  // property the streamed pipeline's batch ordering rests on.
  SpscQueue<uint64_t> q(4);
  uint64_t next_push = 0, next_pop = 0;
  // Offset the indices so push/pop runs straddle the boundary rather than
  // landing on it.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(next_push++));
  for (int round = 0; round < 64; ++round) {
    uint64_t v;
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_pop++);
    ASSERT_TRUE(q.TryPush(next_push++));
    ASSERT_TRUE(q.TryPush(next_push++));
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_pop++);
  }
  while (!q.Empty()) {
    uint64_t v;
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscQueueTest, MovesUniquePtrs) {
  SpscQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.TryPush(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

TEST(SpscQueueTest, ConcurrentProducerConsumerPreservesOrder) {
  // TSan-targeted (runs 50x seeded in the tsan-stress CI job): one
  // producer, one consumer, a ring far smaller than the stream, so both
  // the full path (producer refreshes head_cache_) and the empty path
  // (consumer refreshes tail_cache_) run constantly. The consumer asserts
  // strict FIFO — any torn publication or reordered slot write shows up
  // as an out-of-order value (and as a TSan race on the slot).
  constexpr uint64_t kCount = 100'000;
  SpscQueue<uint64_t> q(8);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t v;
    if (q.TryPop(&v)) {
      ASSERT_EQ(v, expected) << "SPSC ring broke FIFO across wraparound";
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace bohm
