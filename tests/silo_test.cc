#include "occ/silo_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

std::unique_ptr<SiloEngine> MakeEngine(uint64_t keys, uint32_t threads,
                                       uint64_t initial = 0) {
  SiloConfig cfg;
  cfg.threads = threads;
  cfg.epoch_period_us = 1000;
  auto engine = std::make_unique<SiloEngine>(OneTable(keys), cfg);
  for (Key k = 0; k < keys; ++k) {
    EXPECT_TRUE(engine->Load(0, k, &initial).ok());
  }
  return engine;
}

TEST(SiloTest, PutThenRead) {
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

TEST(SiloTest, SequentialIncrements) {
  auto engine = MakeEngine(4, 1);
  for (int i = 0; i < 300; ++i) {
    IncrementProcedure inc(0, 2);
    ASSERT_TRUE(engine->Execute(inc, 0).ok());
  }
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 300u);
}

TEST(SiloTest, ReadOwnBufferedWrite) {
  // Write then read the same record inside one transaction: the read must
  // observe the buffered write, not storage.
  auto engine = MakeEngine(4, 1, /*initial=*/7);
  class WriteThenRead final : public StoredProcedure {
   public:
    WriteThenRead() { set_.AddRmw(0, 1); }
    void Run(TxnOps& ops) override {
      testutil::WriteU64(ops, 0, 1, 99);
      observed_ = testutil::ReadU64(ops, 0, 1);
    }
    uint64_t observed() const { return observed_; }

   private:
    uint64_t observed_ = 0;
  };
  WriteThenRead proc;
  ASSERT_TRUE(engine->Execute(proc, 0).ok());
  EXPECT_EQ(proc.observed(), 99u);
}

TEST(SiloTest, LogicAbortDiscardsBufferedWrites) {
  auto engine = MakeEngine(4, 1, /*initial=*/50);
  testutil::AbortingIncrement proc(0, 2);
  EXPECT_TRUE(engine->Execute(proc, 0).IsAborted());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 50u);
}

TEST(SiloTest, TidAdvancesOnEveryCommit) {
  auto engine = MakeEngine(4, 1);
  uint64_t prev_tid = 0;
  for (int i = 0; i < 20; ++i) {
    IncrementProcedure inc(0, 0);
    ASSERT_TRUE(engine->Execute(inc, 0).ok());
    uint64_t v;
    ASSERT_TRUE(engine->ReadLatest(0, 0, &v).ok());
    // Indirect TID probe: re-execute and confirm monotonic effects.
    EXPECT_EQ(v, static_cast<uint64_t>(i + 1));
    (void)prev_tid;
  }
}

TEST(SiloTest, EpochAdvances) {
  auto engine = MakeEngine(1, 1);
  uint64_t e0 = engine->epoch();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(engine->epoch(), e0);
}

TEST(SiloTest, ContendedIncrementsExactlyOnce) {
  auto engine = MakeEngine(2, 4);
  constexpr int kPerThread = 400;
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
  EXPECT_EQ(engine->Stats().commits, 4u * kPerThread);
}

TEST(SiloTest, TransfersConserveUnderContention) {
  constexpr uint64_t kKeys = 4, kInitial = 1000;
  auto engine = MakeEngine(kKeys, 4, kInitial);
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 40);
      for (int i = 0; i < kPerThread; ++i) {
        Key src = rng.Uniform(kKeys);
        Key dst = rng.Uniform(kKeys);
        while (dst == src) dst = rng.Uniform(kKeys);
        testutil::TransferProcedure xfer(0, src, dst, rng.Uniform(5));
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

TEST(SiloTest, ReadersSeeConsistentPairs) {
  // Seqlock reads + read validation: a pair-reader racing sum-preserving
  // writers must always observe the invariant (serializability).
  auto engine = MakeEngine(2, 3, /*initial=*/100);
  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(t);
      while (!stop.load()) {
        testutil::TransferProcedure xfer(0, t % 2, (t + 1) % 2,
                                         rng.Uniform(5));
        (void)engine->Execute(xfer, t);
      }
    });
  }
  for (int i = 0; i < 400; ++i) {
    uint64_t sum = 0;
    testutil::ReadPairProcedure reader(0, 0, 1, &sum);
    ASSERT_TRUE(engine->Execute(reader, 2).ok());
    if (sum != 200) violated.store(true);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_FALSE(violated.load());
}

TEST(SiloTest, AbortsAreCountedUnderConflict) {
  auto engine = MakeEngine(1, 2);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        IncrementProcedure inc(0, 0);
        (void)engine->Execute(inc, t);
      }
    });
  }
  for (auto& th : threads) th.join();
  StatsSnapshot s = engine->Stats();
  EXPECT_EQ(s.commits, 1000u);
  EXPECT_EQ(s.retries, s.cc_aborts);
}

TEST(SiloTest, BadThreadIdRejected) {
  auto engine = MakeEngine(1, 1);
  PutProcedure p(0, 0, 1);
  EXPECT_TRUE(engine->Execute(p, 3).IsInvalidArgument());
}

TEST(SiloTest, LargeRecordsCopyCorrectly) {
  TableSpec spec;
  spec.id = 0;
  spec.name = "big";
  spec.record_size = 1000;
  spec.capacity = 4;
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(std::move(spec)).ok());
  SiloConfig cfg;
  cfg.threads = 1;
  SiloEngine engine(catalog, cfg);
  std::vector<char> init(1000, 0x42);
  ASSERT_TRUE(engine.Load(0, 0, init.data()).ok());

  class BigRmw final : public StoredProcedure {
   public:
    BigRmw() { set_.AddRmw(0, 0); }
    void Run(TxnOps& ops) override {
      const void* old = ops.Read(0, 0);
      void* buf = ops.Write(0, 0);
      std::memcpy(buf, old, 1000);
      static_cast<char*>(buf)[999] = 0x77;
    }
  };
  BigRmw proc;
  ASSERT_TRUE(engine.Execute(proc, 0).ok());
  std::vector<char> out(1000);
  ASSERT_TRUE(engine.ReadLatest(0, 0, out.data()).ok());
  EXPECT_EQ(out[0], 0x42);
  EXPECT_EQ(out[999], 0x77);
}

}  // namespace
}  // namespace bohm
