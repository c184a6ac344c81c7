#include "mvocc/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

std::unique_ptr<MVOccEngine> MakeEngine(MVOccMode mode, uint64_t keys,
                                        uint32_t threads,
                                        uint64_t initial = 0) {
  MVOccConfig cfg;
  cfg.mode = mode;
  cfg.threads = threads;
  auto engine = std::make_unique<MVOccEngine>(OneTable(keys), cfg);
  for (Key k = 0; k < keys; ++k) {
    EXPECT_TRUE(engine->Load(0, k, &initial).ok());
  }
  return engine;
}

class MVOccModeTest : public ::testing::TestWithParam<MVOccMode> {};

TEST_P(MVOccModeTest, PutThenRead) {
  auto engine = MakeEngine(GetParam(), 8, 1);
  PutProcedure put(0, 3, 42);
  ASSERT_TRUE(engine->Execute(put, 0).ok());
  uint64_t out = 0;
  bool found = false;
  GetProcedure get(0, 3, &out, &found);
  ASSERT_TRUE(engine->Execute(get, 0).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(out, 42u);
}

TEST_P(MVOccModeTest, SequentialIncrements) {
  auto engine = MakeEngine(GetParam(), 4, 1);
  for (int i = 0; i < 200; ++i) {
    IncrementProcedure inc(0, 1);
    ASSERT_TRUE(engine->Execute(inc, 0).ok());
  }
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 1, &out).ok());
  EXPECT_EQ(out, 200u);
  EXPECT_EQ(engine->Stats().commits, 200u);
}

TEST_P(MVOccModeTest, ReadMissingKeyIsNull) {
  auto engine = MakeEngine(GetParam(), 4, 1);
  uint64_t out = 7;
  bool found = true;
  GetProcedure get(0, 3, &out, &found);  // loaded with zero... use key out of range
  ASSERT_TRUE(engine->Execute(get, 0).ok());
  EXPECT_TRUE(found);  // key 3 was loaded
  uint64_t out2 = 7;
  bool found2 = true;
  GetProcedure get2(0, 9999, &out2, &found2);
  ASSERT_TRUE(engine->Execute(get2, 0).ok());
  EXPECT_FALSE(found2);
}

TEST_P(MVOccModeTest, LogicAbortRollsBack) {
  auto engine = MakeEngine(GetParam(), 4, 1, /*initial=*/50);
  testutil::AbortingIncrement proc(0, 2);
  EXPECT_TRUE(engine->Execute(proc, 0).IsAborted());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 50u);
  EXPECT_EQ(engine->Stats().logic_aborts, 1u);
  EXPECT_EQ(engine->Stats().commits, 0u);
}

TEST_P(MVOccModeTest, ClockAdvancesAtLeastTwicePerTxn) {
  // The paper's Section 4.2.2 point: the global counter is incremented at
  // least twice per transaction, conflict or not.
  auto engine = MakeEngine(GetParam(), 4, 1);
  uint64_t before = engine->clock();
  for (int i = 0; i < 50; ++i) {
    IncrementProcedure inc(0, 0);
    ASSERT_TRUE(engine->Execute(inc, 0).ok());
  }
  EXPECT_GE(engine->clock() - before, 100u);
}

TEST_P(MVOccModeTest, ConcurrentDisjointIncrements) {
  auto engine = MakeEngine(GetParam(), 64, 4);
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kPerThread; ++i) {
        IncrementProcedure inc(0, t * 16 + rng.Uniform(16));
        ASSERT_TRUE(engine->Execute(inc, t).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (Key k = 0; k < 64; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine->ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, 4u * kPerThread);
}

TEST_P(MVOccModeTest, ContendedIncrementsAllCommitEventually) {
  // First-updater-wins forces retries, but retry-on-abort must preserve
  // exactly-once effects: total equals the number of Execute calls.
  auto engine = MakeEngine(GetParam(), 2, 4);
  constexpr int kPerThread = 300;
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

TEST_P(MVOccModeTest, TransfersConserveUnderContention) {
  constexpr uint64_t kKeys = 4, kInitial = 1000;
  auto engine = MakeEngine(GetParam(), kKeys, 4, kInitial);
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
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

TEST_P(MVOccModeTest, WriterParkedAfterDrawingEndTsLosesNoUpdate) {
  // Lost-update regression. T1 increments X and is parked right after it
  // draws its end timestamp E1, before publishing it. T2 begins after E1
  // (B2 > E1), reads X, waits for T1 to commit, then writes X + 1. T2
  // must observe T1's increment: T1 commits at E1 < B2, so it is in T2's
  // snapshot. If T1 looked Active to T2 inside that window, T2 would read
  // the pre-T1 value and, once T1 committed, install over T1's version
  // without a conflict — under SI, T1's update would be lost.
  auto engine = MakeEngine(GetParam(), 1, 2);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<uint64_t> t1_end{0};
  engine->set_end_ts_hook([&](uint32_t thread_id, uint64_t end) {
    if (thread_id != 0 || parked.load()) return;  // park T1's first commit
    t1_end.store(end);
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });

  std::atomic<bool> t1_committed{false};
  std::thread t1([&] {
    IncrementProcedure inc(0, 0);
    EXPECT_TRUE(engine->Execute(inc, 0).ok());
    t1_committed.store(true);
  });
  while (!parked.load()) std::this_thread::yield();

  class ReadWaitWrite final : public StoredProcedure {
   public:
    ReadWaitWrite(std::atomic<bool>* read_done, std::atomic<bool>* go)
        : read_done_(read_done), go_(go) {
      set_.AddRmw(0, 0);
    }
    void Run(TxnOps& ops) override {
      const uint64_t v = testutil::ReadU64(ops, 0, 0);
      read_done_->store(true);
      while (!go_->load()) std::this_thread::yield();
      testutil::WriteU64(ops, 0, 0, v + 1);
    }

   private:
    std::atomic<bool>* read_done_;
    std::atomic<bool>* go_;
  };
  std::atomic<bool> t2_read{false};
  std::thread t2([&] {
    ReadWaitWrite proc(&t2_read, &t1_committed);
    EXPECT_TRUE(engine->Execute(proc, 1).ok());
  });
  // T2 has drawn its begin timestamp once the clock passes E1 + 1.
  while (engine->clock() <= t1_end.load() + 1) std::this_thread::yield();
  // Keep T1 parked until T2 has read. A correct engine makes T2's read
  // wait for T1's end timestamp, so give up waiting after a grace period;
  // the outcome must be right either way.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (!t2_read.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  release.store(true);
  t1.join();
  t2.join();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 2u) << "an increment was lost";
}

INSTANTIATE_TEST_SUITE_P(Modes, MVOccModeTest,
                         ::testing::Values(MVOccMode::kHekaton,
                                           MVOccMode::kSnapshotIsolation));

TEST(MVOccTest, WriteWriteConflictAborts) {
  // Two overlapped writers to the same record: first-updater-wins must
  // abort (and retry) at least one of them; effects remain exactly-once.
  auto engine = MakeEngine(MVOccMode::kSnapshotIsolation, 1, 2);
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 2; ++t) {
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
  EXPECT_EQ(out, 2u * kPerThread);
}

TEST(MVOccTest, SnapshotReadsIgnoreLaterCommits) {
  // A transaction's reads all come from its begin snapshot: a pair-reader
  // racing with sum-preserving transfers must always observe the invariant
  // sum under SI (and under Hekaton, which additionally validates).
  for (MVOccMode mode :
       {MVOccMode::kSnapshotIsolation, MVOccMode::kHekaton}) {
    auto engine = MakeEngine(mode, 2, 3, /*initial=*/100);
    std::atomic<bool> stop{false};
    std::atomic<bool> violated{false};
    std::thread writer1([&] {
      Rng rng(1);
      while (!stop.load()) {
        testutil::TransferProcedure xfer(0, 0, 1, rng.Uniform(5));
        (void)engine->Execute(xfer, 0);
      }
    });
    std::thread writer2([&] {
      Rng rng(2);
      while (!stop.load()) {
        testutil::TransferProcedure xfer(0, 1, 0, rng.Uniform(5));
        (void)engine->Execute(xfer, 1);
      }
    });
    for (int i = 0; i < 300; ++i) {
      testutil::ReadPairProcedure reader(0, 0, 1);
      ASSERT_TRUE(engine->Execute(reader, 2).ok());
      if (reader.sum() != 200) violated.store(true);
    }
    stop.store(true);
    writer1.join();
    writer2.join();
    EXPECT_FALSE(violated.load()) << "mode " << static_cast<int>(mode);
  }
}

TEST(MVOccTest, HekatonValidationDetectsStaleRead) {
  // Force: T reads A, then another txn updates A and commits, then T
  // updates B and tries to commit. Hekaton must abort T's first attempt
  // (read not repeatable at end timestamp); the retry succeeds.
  auto engine = MakeEngine(MVOccMode::kHekaton, 2, 2, /*initial=*/1);

  std::atomic<int> phase{0};
  class StaleReader final : public StoredProcedure {
   public:
    StaleReader(std::atomic<int>* phase) : phase_(phase) {
      set_.AddRead(0, 0);
      set_.AddRmw(0, 1);
    }
    void Run(TxnOps& ops) override {
      uint64_t a = testutil::ReadU64(ops, 0, 0);
      if (runs_++ == 0) {
        // Signal the interferer and wait for its commit.
        phase_->store(1);
        while (phase_->load() != 2) std::this_thread::yield();
      }
      uint64_t b = testutil::ReadU64(ops, 0, 1);
      testutil::WriteU64(ops, 0, 1, a + b);
    }
    int runs() const { return runs_; }

   private:
    std::atomic<int>* phase_;
    int runs_ = 0;
  };

  std::thread interferer([&] {
    while (phase.load() != 1) std::this_thread::yield();
    IncrementProcedure inc(0, 0);
    ASSERT_TRUE(engine->Execute(inc, 1).ok());
    phase.store(2);
  });

  StaleReader proc(&phase);
  ASSERT_TRUE(engine->Execute(proc, 0).ok());
  interferer.join();
  EXPECT_GE(proc.runs(), 2);                       // first attempt aborted
  EXPECT_GE(engine->Stats().cc_aborts, 1u);        // validation failure
  uint64_t b = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 1, &b).ok());
  EXPECT_EQ(b, 3u);  // retry saw A = 2: B = 2 + 1
}

TEST(MVOccTest, CommitDependencyCascadeKeepsConsistency) {
  // Speculative reads under commit dependencies must never leak an
  // aborted writer's value. Run aborting writers against readers and
  // check the reader only ever observes committed values (multiples of 3).
  auto engine = MakeEngine(MVOccMode::kHekaton, 1, 2, /*initial=*/0);
  class AddThree final : public StoredProcedure {
   public:
    AddThree() { set_.AddRmw(0, 0); }
    void Run(TxnOps& ops) override {
      testutil::WriteU64(ops, 0, 0, testutil::ReadU64(ops, 0, 0) + 3);
    }
  };
  class AddOneAbort final : public StoredProcedure {
   public:
    AddOneAbort() { set_.AddRmw(0, 0); }
    void Run(TxnOps& ops) override {
      testutil::WriteU64(ops, 0, 0, testutil::ReadU64(ops, 0, 0) + 1);
      ops.Abort();
    }
  };
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread writer([&] {
    Rng rng(3);
    while (!stop.load()) {
      if (rng.Uniform(2) == 0) {
        AddThree p;
        (void)engine->Execute(p, 0);
      } else {
        AddOneAbort p;
        (void)engine->Execute(p, 0);
      }
    }
  });
  for (int i = 0; i < 500; ++i) {
    uint64_t out = 0;
    bool found = false;
    GetProcedure get(0, 0, &out, &found);
    ASSERT_TRUE(engine->Execute(get, 1).ok());
    if (out % 3 != 0) bad.store(true);
  }
  stop.store(true);
  writer.join();
  EXPECT_FALSE(bad.load());
}

TEST(MVOccTest, StatsTrackRetries) {
  auto engine = MakeEngine(MVOccMode::kSnapshotIsolation, 1, 2);
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

TEST(MVOccTest, BadThreadIdRejected) {
  auto engine = MakeEngine(MVOccMode::kHekaton, 1, 1);
  PutProcedure p(0, 0, 1);
  EXPECT_TRUE(engine->Execute(p, 5).IsInvalidArgument());
}

TEST(MVOccTest, LoadOutsideCapacityRejected) {
  auto engine = MakeEngine(MVOccMode::kHekaton, 4, 1);
  uint64_t v = 0;
  EXPECT_TRUE(engine->Load(0, 100, &v).IsInvalidArgument());
}

}  // namespace
}  // namespace bohm
