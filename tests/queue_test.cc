#include "common/queue.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
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
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int{i}));
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

TEST(MpscQueueTest, BlockingPushKeepsMoveOnlyValue) {
  // The third Push finds the queue full and retries until a pop frees a
  // cell; its failed attempts must leave the value with it, so the value
  // that finally lands is the one it was given, not a moved-from null.
  MpscQueue<std::unique_ptr<int>> q(2);
  q.Push(std::make_unique<int>(1));
  q.Push(std::make_unique<int>(2));
  std::thread pusher([&q] { q.Push(std::make_unique<int>(3)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int want = 1; want <= 3; ++want) {
    std::unique_ptr<int> out;
    while (!q.TryPop(&out)) std::this_thread::yield();
    if (want == 3) pusher.join();
    ASSERT_NE(out, nullptr) << "pop " << want;
    EXPECT_EQ(*out, want);
  }
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

}  // namespace
}  // namespace bohm
