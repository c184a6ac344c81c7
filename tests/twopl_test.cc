#include "twopl/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

std::unique_ptr<TwoPLEngine> MakeEngine(uint64_t keys, uint32_t threads,
                                        uint64_t initial = 0) {
  TwoPLConfig cfg;
  cfg.threads = threads;
  auto engine = std::make_unique<TwoPLEngine>(OneTable(keys), cfg);
  for (Key k = 0; k < keys; ++k) {
    EXPECT_TRUE(engine->Load(0, k, &initial).ok());
  }
  return engine;
}

// ---------- Engine ----------

TEST(TwoPLTest, PutThenRead) {
  auto engine = MakeEngine(8, 1);
  PutProcedure put(0, 3, 42);
  ASSERT_TRUE(engine->Execute(put, 0).ok());
  uint64_t out = 0;
  bool found = false;
  GetProcedure get(0, 3, &out, &found);
  ASSERT_TRUE(engine->Execute(get, 0).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(out, 42u);
}

TEST(TwoPLTest, LogicAbortRestoresUndoImage) {
  auto engine = MakeEngine(4, 1, /*initial=*/50);
  testutil::AbortingIncrement proc(0, 2);
  EXPECT_TRUE(engine->Execute(proc, 0).IsAborted());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 50u);  // in-place write rolled back
}

TEST(TwoPLTest, AbortRestoresMultipleWrites) {
  auto engine = MakeEngine(4, 1, /*initial=*/10);
  class AbortingDoubleWrite final : public StoredProcedure {
   public:
    AbortingDoubleWrite() {
      set_.AddRmw(0, 0);
      set_.AddRmw(0, 1);
    }
    void Run(TxnOps& ops) override {
      testutil::WriteU64(ops, 0, 0, 111);
      testutil::WriteU64(ops, 0, 1, 222);
      ops.Abort();
    }
  };
  AbortingDoubleWrite proc;
  EXPECT_TRUE(engine->Execute(proc, 0).IsAborted());
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &a).ok());
  ASSERT_TRUE(engine->ReadLatest(0, 1, &b).ok());
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 10u);
}

TEST(TwoPLTest, NoLostUpdatesUnderContention) {
  auto engine = MakeEngine(2, 4);
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        IncrementProcedure inc(0, 0);
        ASSERT_TRUE(engine->Execute(inc, t).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 4u * kPerThread);
  // 2PL never cc-aborts: every attempt commits.
  EXPECT_EQ(engine->Stats().cc_aborts, 0u);
}

TEST(TwoPLTest, CrossingTransfersNoDeadlock) {
  // Transfers in both directions on overlapping records: lexicographic
  // acquisition order makes deadlock impossible — the test must simply
  // terminate with the sum conserved.
  constexpr uint64_t kKeys = 3, kInitial = 1000;
  auto engine = MakeEngine(kKeys, 4, kInitial);
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 7);
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate directions to maximize crossing lock demands.
        Key a = t % kKeys;
        Key b = (t + 1 + i % (kKeys - 1)) % kKeys;
        if (a == b) b = (b + 1) % kKeys;
        testutil::TransferProcedure xfer(0, a, b, rng.Uniform(5));
        ASSERT_TRUE(engine->Execute(xfer, t).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine->ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, kKeys * kInitial);
}

TEST(TwoPLTest, SharedLocksAllowConcurrentReaders) {
  auto engine = MakeEngine(2, 3, /*initial=*/100);
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        uint64_t sum = 0;
        testutil::ReadPairProcedure reader(0, 0, 1, &sum);
        ASSERT_TRUE(engine->Execute(reader, t).ok());
        if (sum != 200) violated.store(true);
      }
    });
  }
  for (int i = 0; i < 300; ++i) {
    testutil::TransferProcedure xfer(0, 0, 1, 1);
    ASSERT_TRUE(engine->Execute(xfer, 2).ok());
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(violated.load());
}

TEST(TwoPLTest, RmwTakesExclusiveOnce) {
  // An RMW appears in both sets: the lock order must collapse it to one
  // exclusive acquisition (no self-deadlock on upgrade).
  auto engine = MakeEngine(2, 1, 5);
  IncrementProcedure inc(0, 1);
  ASSERT_TRUE(engine->Execute(inc, 0).ok());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 1, &out).ok());
  EXPECT_EQ(out, 6u);
}

TEST(TwoPLTest, BadThreadIdRejected) {
  auto engine = MakeEngine(1, 1);
  PutProcedure p(0, 0, 1);
  EXPECT_TRUE(engine->Execute(p, 9).IsInvalidArgument());
}

}  // namespace
}  // namespace bohm
