#include "bohm/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;
using testutil::RunSync;

/// Loads keys 0..keys-1 of a table declared with `capacity` slots (keys
/// by default); the keys between stay absent.
std::unique_ptr<BohmEngine> MakeEngine(uint64_t keys, BohmConfig cfg,
                                       uint64_t initial = 0,
                                       uint64_t capacity = 0) {
  auto engine = std::make_unique<BohmEngine>(
      OneTable(capacity == 0 ? keys : capacity), cfg);
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
/// Declares key 1 twice in a write set of `width` elements (keys 1 ..
/// width - 1, then 1 again) — a malformed footprint.
class DuplicateWriteProcedure final : public StoredProcedure {
 public:
  explicit DuplicateWriteProcedure(Key width) {
    for (Key k = 1; k < width; ++k) set_.AddWrite(0, k);
    set_.AddWrite(0, 1);
  }
  void Run(TxnOps& ops) override {
    for (const RecordId& rec : set_.writes()) {
      uint64_t v = 7;
      std::memcpy(ops.Write(rec.table, rec.key), &v, sizeof(v));
    }
  }
};
}  // namespace

TEST(BohmEngineTest, SubmitDuplicateWriteRejected) {
  BohmEngine engine(OneTable(128), BohmConfig{});
  ASSERT_TRUE(engine.Start().ok());
  // 2 writes take the quadratic scan, 65 the sorted check above it.
  for (Key width : {Key{2}, Key{65}}) {
    Status st =
        engine.Submit(std::make_unique<DuplicateWriteProcedure>(width));
    EXPECT_TRUE(st.IsRejected()) << "width " << width << ": " << st.ToString();
  }
  // The engine keeps running after a rejection.
  ASSERT_TRUE(engine.Submit(std::make_unique<PutProcedure>(0, 1, 2)).ok());
  testutil::WaitForIdle(engine);
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

// Keys are 0..capacity-1: a key past the declared capacity has no head
// slot in the table's array, so every entry point refuses it.

TEST(BohmEngineTest, SubmitReadKeyBeyondCapacityRejected) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  BohmEngine engine(OneTable(4), cfg);
  ASSERT_TRUE(engine.Start().ok());
  uint64_t out = 0;
  for (Key key : {Key{4}, Key{5}, ~Key{0}}) {
    Status st = engine.Submit(std::make_unique<GetProcedure>(0, key, &out));
    EXPECT_TRUE(st.IsRejected()) << "key " << key << ": " << st.ToString();
  }
  EXPECT_EQ(engine.submitted(), 0u);
  engine.Stop();
}

TEST(BohmEngineTest, SubmitWriteKeyBeyondCapacityRejected) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  BohmEngine engine(OneTable(4), cfg);
  ASSERT_TRUE(engine.Start().ok());
  for (Key key : {Key{4}, Key{5}, ~Key{0}}) {
    Status st = engine.Submit(std::make_unique<PutProcedure>(0, key, 1));
    EXPECT_TRUE(st.IsRejected()) << "key " << key << ": " << st.ToString();
  }
  EXPECT_EQ(engine.submitted(), 0u);
  // The engine keeps running after a rejection, and the last key fits.
  ASSERT_TRUE(engine.Submit(std::make_unique<PutProcedure>(0, 3, 9)).ok());
  EXPECT_EQ(engine.submitted(), 1u);
  testutil::WaitForIdle(engine);
  uint64_t v = 0;
  EXPECT_TRUE(engine.ReadLatest(0, 3, &v).ok());
  EXPECT_EQ(v, 9u);
  engine.Stop();
}

TEST(BohmEngineTest, LoadBeyondCapacityRejected) {
  BohmConfig cfg;
  cfg.cc_threads = 3;
  BohmEngine engine(OneTable(4), cfg);
  uint64_t v = 1;
  EXPECT_TRUE(engine.Load(0, 3, &v).ok());
  EXPECT_TRUE(engine.Load(0, 4, &v).IsInvalidArgument());
  EXPECT_TRUE(engine.Load(0, 7, &v).IsInvalidArgument());
  EXPECT_TRUE(engine.Load(0, ~Key{0}, &v).IsInvalidArgument());
}

TEST(BohmEngineTest, ReadLatestBeyondCapacityNotFound) {
  BohmEngine engine(OneTable(4), BohmConfig{});
  uint64_t v = 1;
  for (Key k = 0; k < 4; ++k) ASSERT_TRUE(engine.Load(0, k, &v).ok());
  ASSERT_TRUE(engine.Start().ok());
  uint64_t out = 0;
  EXPECT_TRUE(engine.ReadLatest(0, 3, &out).ok());
  EXPECT_TRUE(engine.ReadLatest(0, 4, &out).IsNotFound());
  EXPECT_TRUE(engine.ReadLatest(0, ~Key{0}, &out).IsNotFound());
  engine.Stop();
}

TEST(BohmEngineTest, StartRejectsInterestMaskWiderThan64Threads) {
  BohmConfig cfg;
  cfg.cc_threads = 65;  // 1ull << 64 would be undefined
  cfg.exec_threads = 1;
  BohmEngine engine(OneTable(8), cfg);
  Status s = engine.Start();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The rejected engine never started; Submit refuses and Stop is clean.
  EXPECT_FALSE(
      engine.Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  engine.Stop();
}

TEST(BohmEngineTest, PutThenReadLatest) {
  auto engine = MakeEngine(8, BohmConfig{});
  ASSERT_TRUE(RunSync(*engine, std::make_unique<PutProcedure>(0, 3, 77)).ok());
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
      RunSync(*engine, std::make_unique<GetProcedure>(0, 2, &out, &found))
          .ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(out, 123u);
  engine->Stop();
}

TEST(BohmEngineTest, ReadMissingKeySeesNull) {
  auto engine = MakeEngine(4, BohmConfig{}, 0, /*capacity=*/2048);
  uint64_t out = 99;
  bool found = true;
  // Key 1000 was never loaded or written.
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<GetProcedure>(0, 1000, &out, &found))
          .ok());
  EXPECT_FALSE(found);
  engine->Stop();
}

TEST(BohmEngineTest, InsertNewKeyVisible) {
  auto engine = MakeEngine(4, BohmConfig{}, 0, /*capacity=*/2048);
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<PutProcedure>(0, 500, 1)).ok());
  uint64_t out = 0;
  bool found = false;
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<GetProcedure>(0, 500, &out, &found))
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
  testutil::WaitForIdle(*engine);
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
      RunSync(*engine, std::make_unique<testutil::AbortingIncrement>(0, 2))
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
  testutil::WaitForIdle(*engine);
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 6u);
  engine->Stop();
}

TEST(BohmEngineTest, AbortedInsertRemainsAbsent) {
  auto engine = MakeEngine(4, BohmConfig{}, 0, /*capacity=*/2048);
  // Write to a fresh key, then abort: the placeholder becomes a tombstone.
  class AbortingInsert final : public StoredProcedure {
   public:
    AbortingInsert() { set_.AddWrite(0, 777); }
    void Run(TxnOps& ops) override {
      testutil::WriteU64(ops, 0, 777, 42);
      ops.Abort();
    }
  };
  ASSERT_TRUE(RunSync(*engine, std::make_unique<AbortingInsert>()).ok());
  uint64_t out = 0;
  bool found = true;
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<GetProcedure>(0, 777, &out, &found))
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
  testutil::WaitForIdle(*engine);
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
  testutil::WaitForIdle(*engine);
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
  std::deque<uint64_t> sums;  // never moves a slot a reader still writes
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 2) {
      sums.push_back(0);
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<testutil::ReadPairProcedure>(
                          0, 0, 1, &sums.back()))
                      .ok());
    } else {
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<testutil::TransferProcedure>(
                          0, i % 2, (i + 1) % 2, rng.Uniform(5)))
                      .ok());
    }
  }
  testutil::WaitForIdle(*engine);
  for (uint64_t sum : sums) EXPECT_EQ(sum, 200u);
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
  const Catalog catalog = OneTable(kKeys);
  BohmEngine engine(catalog, cfg);
  perfbench::SerialOracle oracle(catalog);
  auto load = testutil::LoadBoth(engine, oracle);
  const uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  Rng rng(1234);
  for (int i = 0; i < kTxns; ++i) {
    int kind = static_cast<int>(rng.Uniform(3));
    ProcedurePtr txn;
    if (kind == 0) {
      Key k = rng.Uniform(kKeys);
      txn = std::make_unique<IncrementProcedure>(0, k, rng.Uniform(100));
    } else if (kind == 1) {
      Key src = rng.Uniform(kKeys);
      Key dst = rng.Uniform(kKeys);
      while (dst == src) dst = rng.Uniform(kKeys);
      txn = std::make_unique<testutil::TransferProcedure>(0, src, dst,
                                                          rng.Uniform(50));
    } else {
      Key src = rng.Uniform(kKeys);
      Key dst = rng.Uniform(kKeys);
      txn = testutil::MakeMulWrite(0, src, dst, rng.Uniform(3) + 1);
    }
    oracle.Execute(*txn);
    ASSERT_TRUE(engine.Submit(std::move(txn)).ok());
  }
  testutil::WaitForIdle(engine);
  testutil::ExpectMatchesOracle(engine, oracle, catalog);
  engine.Stop();
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
  testutil::WaitForIdle(*engine);
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, static_cast<uint64_t>(kN));
  engine->Stop();
}

TEST(BohmEngineTest, StatsCountReadsAndWrites) {
  auto engine = MakeEngine(4, BohmConfig{});
  ASSERT_TRUE(RunSync(*engine, std::make_unique<IncrementProcedure>(0, 1)).ok());
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
  testutil::WaitForIdle(*engine);
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

}  // namespace
}  // namespace bohm
