#include "bohm/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

std::unique_ptr<BohmEngine> MakeEngine(uint64_t keys, BohmConfig cfg,
                                       uint64_t initial = 0) {
  auto engine = std::make_unique<BohmEngine>(OneTable(keys), cfg);
  for (Key k = 0; k < keys; ++k) {
    EXPECT_TRUE(engine->Load(0, k, &initial).ok());
  }
  EXPECT_TRUE(engine->Start().ok());
  return engine;
}

TEST(BohmEngineTest, StartStopEmpty) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  EXPECT_TRUE(engine.Start().ok());
  engine.Stop();
}

TEST(BohmEngineTest, DoubleStartRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  EXPECT_TRUE(engine.Start().ok());
  EXPECT_TRUE(engine.Start().IsFailedPrecondition());
  engine.Stop();
}

TEST(BohmEngineTest, SubmitBeforeStartRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  EXPECT_TRUE(
      engine.Submit(std::make_unique<PutProcedure>(0, 1, 2)).IsRejected());
}

TEST(BohmEngineTest, SubmitAfterStopRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  ASSERT_TRUE(engine.Start().ok());
  engine.Stop();
  EXPECT_TRUE(
      engine.Submit(std::make_unique<PutProcedure>(0, 1, 2)).IsRejected());
}

TEST(BohmEngineTest, SubmitUnknownTableRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  ASSERT_TRUE(engine.Start().ok());
  // Table 7 does not exist; before graceful rejection this dereferenced a
  // null BohmTable inside the sequencer.
  Status st = engine.Submit(std::make_unique<PutProcedure>(7, 1, 2));
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  engine.Stop();
}

namespace {
/// Declares the same key twice in its write set — a malformed footprint.
class DuplicateWriteProcedure final : public StoredProcedure {
 public:
  DuplicateWriteProcedure() {
    set_.AddWrite(0, 1);
    set_.AddWrite(0, 1);
  }
  void Run(TxnOps& ops) override { (void)ops.Write(0, 1); }
};
}  // namespace

TEST(BohmEngineTest, SubmitDuplicateWriteRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  ASSERT_TRUE(engine.Start().ok());
  Status st = engine.Submit(std::make_unique<DuplicateWriteProcedure>());
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  // The engine keeps running after a rejection.
  ASSERT_TRUE(engine.Submit(std::make_unique<PutProcedure>(0, 1, 2)).ok());
  engine.WaitForIdle();
  uint64_t v = 0;
  EXPECT_TRUE(engine.ReadLatest(0, 1, &v).ok());
  EXPECT_EQ(v, 2u);
  engine.Stop();
}

TEST(BohmEngineTest, LoadAfterStartRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  ASSERT_TRUE(engine.Start().ok());
  uint64_t v = 1;
  EXPECT_TRUE(engine.Load(0, 0, &v).IsFailedPrecondition());
  engine.Stop();
}

TEST(BohmEngineTest, LoadDuplicateRejected) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  uint64_t v = 1;
  EXPECT_TRUE(engine.Load(0, 0, &v).ok());
  EXPECT_TRUE(engine.Load(0, 0, &v).IsInvalidArgument());
}

TEST(BohmEngineTest, PutThenReadLatest) {
  auto engine = MakeEngine(8, BohmConfig{});
  ASSERT_TRUE(engine->RunSync(std::make_unique<PutProcedure>(0, 3, 77)).ok());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 3, &out).ok());
  EXPECT_EQ(out, 77u);
  engine->Stop();
}

TEST(BohmEngineTest, GetSeesLoadedValue) {
  BohmConfig cfg;
  auto engine = MakeEngine(8, cfg, /*initial=*/123);
  uint64_t out = 0;
  bool found = false;
  ASSERT_TRUE(
      engine->RunSync(std::make_unique<GetProcedure>(0, 2, &out, &found))
          .ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(out, 123u);
  engine->Stop();
}

TEST(BohmEngineTest, ReadMissingKeySeesNull) {
  auto engine = MakeEngine(4, BohmConfig{});
  uint64_t out = 99;
  bool found = true;
  // Key 1000 was never loaded or written.
  ASSERT_TRUE(
      engine->RunSync(std::make_unique<GetProcedure>(0, 1000, &out, &found))
          .ok());
  EXPECT_FALSE(found);
  engine->Stop();
}

TEST(BohmEngineTest, InsertNewKeyVisible) {
  auto engine = MakeEngine(4, BohmConfig{});
  ASSERT_TRUE(
      engine->RunSync(std::make_unique<PutProcedure>(0, 500, 1)).ok());
  uint64_t out = 0;
  bool found = false;
  ASSERT_TRUE(
      engine->RunSync(std::make_unique<GetProcedure>(0, 500, &out, &found))
          .ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(out, 1u);
  engine->Stop();
}

TEST(BohmEngineTest, SequentialIncrementsAccumulate) {
  auto engine = MakeEngine(4, BohmConfig{});
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<IncrementProcedure>(0, 1)).ok());
  }
  engine->WaitForIdle();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 1, &out).ok());
  EXPECT_EQ(out, static_cast<uint64_t>(kN));
  StatsSnapshot s = engine->Stats();
  EXPECT_EQ(s.commits, static_cast<uint64_t>(kN));
  EXPECT_EQ(s.cc_aborts, 0u);  // Bohm never cc-aborts
  engine->Stop();
}

TEST(BohmEngineTest, LogicAbortLeavesValueUnchanged) {
  auto engine = MakeEngine(4, BohmConfig{}, /*initial=*/10);
  ASSERT_TRUE(
      engine->RunSync(std::make_unique<testutil::AbortingIncrement>(0, 2))
          .ok());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 10u);  // the aborted txn's placeholder carries the old value
  EXPECT_EQ(engine->Stats().logic_aborts, 1u);
  engine->Stop();
}

TEST(BohmEngineTest, AbortThenReadChainsCorrectly) {
  // abort, then increment, then read: the increment must see the
  // pre-abort value through the abort-filled placeholder.
  auto engine = MakeEngine(4, BohmConfig{}, /*initial=*/5);
  ASSERT_TRUE(
      engine->Submit(std::make_unique<testutil::AbortingIncrement>(0, 0))
          .ok());
  ASSERT_TRUE(
      engine->Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  engine->WaitForIdle();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 6u);
  engine->Stop();
}

TEST(BohmEngineTest, AbortedInsertRemainsAbsent) {
  auto engine = MakeEngine(4, BohmConfig{});
  // Write to a fresh key, then abort: the placeholder becomes a tombstone.
  class AbortingInsert final : public StoredProcedure {
   public:
    AbortingInsert() { set_.AddWrite(0, 777); }
    void Run(TxnOps& ops) override {
      testutil::WriteU64(ops, 0, 777, 42);
      ops.Abort();
    }
  };
  ASSERT_TRUE(engine->RunSync(std::make_unique<AbortingInsert>()).ok());
  uint64_t out = 0;
  bool found = true;
  ASSERT_TRUE(
      engine->RunSync(std::make_unique<GetProcedure>(0, 777, &out, &found))
          .ok());
  EXPECT_FALSE(found);
  engine->Stop();
}

TEST(BohmEngineTest, WriteSkewImpossible) {
  // T1: B := A*10;  T2: A := B*100. Submitted in that order, the result
  // must equal the serial execution T1 then T2 (Bohm's timestamp order IS
  // the serialization order).
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  auto engine = MakeEngine(2, cfg, /*initial=*/1);
  ASSERT_TRUE(engine->Submit(testutil::MakeMulWrite(0, 0, 1, 10)).ok());
  ASSERT_TRUE(engine->Submit(testutil::MakeMulWrite(0, 1, 0, 100)).ok());
  engine->WaitForIdle();
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &a).ok());
  ASSERT_TRUE(engine->ReadLatest(0, 1, &b).ok());
  // Serial T1,T2: B = 1*10 = 10; A = B*100 = 1000.
  EXPECT_EQ(b, 10u);
  EXPECT_EQ(a, 1000u);
  engine->Stop();
}

TEST(BohmEngineTest, TransfersConserveTotal) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 16;
  constexpr uint64_t kKeys = 8, kInitial = 1000, kTxns = 2000;
  auto engine = MakeEngine(kKeys, cfg, kInitial);
  Rng rng(5);
  for (uint64_t i = 0; i < kTxns; ++i) {
    Key src = rng.Uniform(kKeys);
    Key dst = rng.Uniform(kKeys);
    while (dst == src) dst = rng.Uniform(kKeys);
    ASSERT_TRUE(engine
                    ->Submit(std::make_unique<testutil::TransferProcedure>(
                        0, src, dst, rng.Uniform(10)))
                    .ok());
  }
  engine->WaitForIdle();
  uint64_t total = 0;
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine->ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, kKeys * kInitial);
  engine->Stop();
}

TEST(BohmEngineTest, ReadOnlySeesConsistentSnapshot) {
  // Interleave transfers (sum-invariant) with pair readers: every reader
  // must observe the invariant sum no matter where its timestamp falls.
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 8;
  auto engine = MakeEngine(2, cfg, /*initial=*/100);
  // Result-carrying procedures stay caller-owned (SubmitBorrowed): the
  // engine destroys Submit()-owned procedures when their batch slot is
  // recycled.
  std::vector<std::unique_ptr<testutil::ReadPairProcedure>> readers;
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 2) {
      readers.push_back(std::make_unique<testutil::ReadPairProcedure>(0, 0, 1));
      ASSERT_TRUE(engine->SubmitBorrowed(readers.back().get()).ok());
    } else {
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<testutil::TransferProcedure>(
                          0, i % 2, (i + 1) % 2, rng.Uniform(5)))
                      .ok());
    }
  }
  engine->WaitForIdle();
  for (const auto& r : readers) {
    EXPECT_EQ(r->sum(), 200u);
  }
  engine->Stop();
}

// ---------------------------------------------------------------------
// Serial-equivalence property: for any configuration, the final database
// state equals a single-threaded replay of the transactions in submission
// (= timestamp) order.
// ---------------------------------------------------------------------

struct EngineParams {
  uint32_t cc_threads;
  uint32_t exec_threads;
  uint32_t batch_size;
  bool gc;
};

class BohmSerialEquivalence
    : public ::testing::TestWithParam<EngineParams> {};

TEST_P(BohmSerialEquivalence, RandomRmwMatchesSerialReplay) {
  const EngineParams p = GetParam();
  BohmConfig cfg;
  cfg.cc_threads = p.cc_threads;
  cfg.exec_threads = p.exec_threads;
  cfg.batch_size = p.batch_size;
  cfg.gc_enabled = p.gc;
  cfg.pipeline_depth = 4;

  constexpr uint64_t kKeys = 16;
  constexpr int kTxns = 1500;
  auto engine = MakeEngine(kKeys, cfg, /*initial=*/0);

  // Golden replay state.
  std::map<Key, uint64_t> golden;
  for (Key k = 0; k < kKeys; ++k) golden[k] = 0;

  Rng rng(1234);
  for (int i = 0; i < kTxns; ++i) {
    int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 0) {
      Key k = rng.Uniform(kKeys);
      uint64_t delta = rng.Uniform(100);
      golden[k] += delta;
      ASSERT_TRUE(
          engine->Submit(std::make_unique<IncrementProcedure>(0, k, delta))
              .ok());
    } else if (kind == 1) {
      Key src = rng.Uniform(kKeys);
      Key dst = rng.Uniform(kKeys);
      while (dst == src) dst = rng.Uniform(kKeys);
      uint64_t amount = rng.Uniform(50);
      golden[src] -= amount;
      golden[dst] += amount;
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<testutil::TransferProcedure>(
                          0, src, dst, amount))
                      .ok());
    } else {
      Key src = rng.Uniform(kKeys);
      Key dst = rng.Uniform(kKeys);
      uint64_t factor = rng.Uniform(3) + 1;
      golden[dst] = golden[src] * factor;
      ASSERT_TRUE(
          engine->Submit(testutil::MakeMulWrite(0, src, dst, factor)).ok());
    }
  }
  engine->WaitForIdle();
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine->ReadLatest(0, k, &v).ok());
    EXPECT_EQ(v, golden[k]) << "key " << k;
  }
  EXPECT_EQ(engine->Stats().commits, static_cast<uint64_t>(kTxns));
  engine->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BohmSerialEquivalence,
    ::testing::Values(EngineParams{1, 1, 1, true},
                      EngineParams{1, 1, 64, true},
                      EngineParams{2, 2, 32, true},
                      EngineParams{3, 2, 17, true},
                      EngineParams{2, 3, 256, true},
                      EngineParams{2, 2, 32, false},  // GC off
                      EngineParams{4, 4, 8, false},
                      EngineParams{1, 4, 512, true},
                      EngineParams{4, 1, 64, true}));

TEST(BohmEngineTest, HotKeyRmwChain) {
  // Every transaction RMWs the same key: maximal read-dependency chains
  // (each txn depends on its predecessor's placeholder). Exercises the
  // recursive evaluation and the back-out path under depth limits.
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 3;
  cfg.batch_size = 64;
  cfg.max_dependency_depth = 4;  // force frequent back-outs
  auto engine = MakeEngine(2, cfg);
  constexpr int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  }
  engine->WaitForIdle();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, static_cast<uint64_t>(kN));
  engine->Stop();
}

TEST(BohmEngineTest, StatsCountReadsAndWrites) {
  auto engine = MakeEngine(4, BohmConfig{});
  ASSERT_TRUE(engine->RunSync(std::make_unique<IncrementProcedure>(0, 1)).ok());
  StatsSnapshot s = engine->Stats();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  engine->Stop();
}

TEST(BohmEngineTest, WatermarkAdvances) {
  BohmConfig cfg;
  cfg.batch_size = 4;
  auto engine = MakeEngine(4, cfg);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  }
  engine->WaitForIdle();
  EXPECT_GE(engine->Watermark(), 0);
  engine->Stop();
}

TEST(BohmEngineTest, StopIsIdempotent) {
  auto engine = MakeEngine(4, BohmConfig{});
  engine->Stop();
  engine->Stop();
}

TEST(BohmEngineTest, IdleSequencerReportsIdleTime) {
  const auto begin = std::chrono::steady_clock::now();
  BohmEngine engine(OneTable(4), BohmConfig{});
  ASSERT_TRUE(engine.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const StatsSnapshot s = engine.Stats();
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
  // Starved of input is idle, not stalled on downstream stages, and the
  // idle time is visible while the wait is still going on.
  EXPECT_GE(s.seq_idle_ns, 25'000'000u);
  EXPECT_LE(s.seq_idle_ns, wall_ns);
  EXPECT_EQ(s.seq_stall_ns, 0u);
  engine.Stop();
}

namespace {
/// Per-procedure counts of completed runs and destructions, kept outside
/// the procedures so they survive them.
struct Ledger {
  explicit Ledger(size_t n) : ran(n), destroyed(n) {}
  std::vector<std::atomic<uint32_t>> ran;
  std::vector<std::atomic<uint32_t>> destroyed;
  std::atomic<uint32_t> destroyed_before_run{0};
};

/// Touches one record as an RMW, a read or a blind write (id % 3), so the
/// destruction lookahead meets empty set buffers too, and books its
/// completed runs and its destruction in a Ledger.
class CountedProcedure final : public StoredProcedure {
 public:
  CountedProcedure(Ledger* ledger, size_t id, Key key)
      : ledger_(ledger), id_(id), key_(key) {
    if (id % 3 != 2) set_.AddRead(0, key);
    if (id % 3 != 1) set_.AddWrite(0, key);
  }
  ~CountedProcedure() override {
    if (ledger_->ran[id_].load() == 0) ledger_->destroyed_before_run++;
    ledger_->destroyed[id_]++;
  }
  void Run(TxnOps& ops) override {
    uint64_t v = 0;
    if (id_ % 3 != 2) {
      const void* old = ops.Read(0, key_);
      if (old != nullptr) std::memcpy(&v, old, sizeof(v));
    }
    if (id_ % 3 != 1) {
      ++v;
      std::memcpy(ops.Write(0, key_), &v, sizeof(v));
    }
    ledger_->ran[id_]++;
  }

 private:
  Ledger* ledger_;
  size_t id_;
  Key key_;
};

/// Batches larger than the destruction lookahead through a 2-deep
/// pipeline (a 4-slot ring), so slots are reused many times over.
BohmConfig SmallRingConfig() {
  BohmConfig cfg;
  cfg.batch_size = 3 * kDestroyObjectAhead;
  cfg.pipeline_depth = 2;
  return cfg;
}
}  // namespace

TEST(BohmEngineTest, OwnedProceduresDestroyedExactlyOnceAfterTheyRan) {
  constexpr size_t kN = 3000;
  Ledger ledger(kN);
  {
    auto engine = MakeEngine(64, SmallRingConfig());
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<CountedProcedure>(
                          &ledger, i, static_cast<Key>(i % 64)))
                      .ok());
    }
    engine->Stop();
    // The batches still in the ring at Stop() keep their procedures
    // until the engine is destroyed; every other slot was reused.
    size_t alive = 0;
    for (size_t i = 0; i < kN; ++i) alive += ledger.destroyed[i] == 0;
    EXPECT_GT(alive, 0u);
    EXPECT_LT(alive, kN);
  }
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(ledger.ran[i], 1u) << "procedure " << i;
    ASSERT_EQ(ledger.destroyed[i], 1u) << "procedure " << i;
  }
  EXPECT_EQ(ledger.destroyed_before_run, 0u);
}

TEST(BohmEngineTest, BorrowedProceduresAreNeverDestroyed) {
  // Odd ids are borrowed, even ids owned, interleaved in the same batches.
  constexpr size_t kN = 1000;
  Ledger ledger(kN);
  std::vector<std::unique_ptr<CountedProcedure>> borrowed;
  {
    auto engine = MakeEngine(64, SmallRingConfig());
    for (size_t i = 0; i < kN; ++i) {
      auto proc = std::make_unique<CountedProcedure>(
          &ledger, i, static_cast<Key>(i % 64));
      if (i % 2 == 1) {
        ASSERT_TRUE(engine->SubmitBorrowed(proc.get()).ok());
        borrowed.push_back(std::move(proc));
      } else {
        ASSERT_TRUE(engine->Submit(std::move(proc)).ok());
      }
    }
    engine->Stop();
  }
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(ledger.ran[i], 1u) << "procedure " << i;
    ASSERT_EQ(ledger.destroyed[i], i % 2 == 0 ? 1u : 0u) << "procedure " << i;
  }
  borrowed.clear();
  for (size_t i = 1; i < kN; i += 2) ASSERT_EQ(ledger.destroyed[i], 1u);
  EXPECT_EQ(ledger.destroyed_before_run, 0u);
}

}  // namespace
}  // namespace bohm
