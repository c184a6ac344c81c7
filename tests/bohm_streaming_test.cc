// Proof suite for the streamed Bohm pipeline (epoch watermarks + SPSC
// handoff, replacing the one-barrier-per-batch CC handoff).
//
// Three properties, per the design:
//  (a) serial equivalence — the streamed pipeline produces exactly the
//      serial oracle's state across seeded YCSB and SmallBank mixes at
//      pipeline depths 1, 2 and 8;
//  (b) the watermark is honoured — with a CC thread frozen mid-batch via
//      a test hook, execution never enters a batch the CC watermark fold
//      has not passed (the streaming analogue of the index test
//      ConcurrentReadersDuringOwnerInserts);
//  (c) overlap really happens — execution commits batch b while a CC
//      thread is inside batch b+1, and CC threads cross batch boundaries
//      independently of each other (impossible under the old barrier), so
//      the optimization cannot silently regress to a barrier.
//
// All waits yield (SpinWait / std::this_thread::yield), so the suite is
// deterministic on a single-core host too: a frozen thread blocks inside
// its hook and everyone else keeps making progress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;
using testutil::WaitUntil;

/// One-shot gate a hook can block on (yielding) until the test opens it.
class Gate {
 public:
  void Open() { open_.store(true, std::memory_order_release); }
  void Wait() {
    while (!open_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  bool IsOpen() const { return open_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> open_{false};
};

// ---------------------------------------------------------------------------
// (a) Serial equivalence across pipeline depths, YCSB mix.
// ---------------------------------------------------------------------------

/// Blind overwrite of whole YCSB records with one byte value. It reads
/// nothing, so it does not commute with the RMWs on the same key, and the
/// final state shows the order CC linked each key's versions in.
class YcsbOverwriteProcedure final : public StoredProcedure {
 public:
  YcsbOverwriteProcedure(const std::vector<Key>& keys, uint32_t record_size,
                         uint8_t fill)
      : record_size_(record_size), fill_(fill) {
    for (Key k : keys) set_.AddWrite(kYcsbTableId, k);
  }
  void Run(TxnOps& ops) override {
    for (const RecordId& rec : set_.writes()) {
      std::memset(ops.Write(rec.table, rec.key), fill_, record_size_);
    }
  }

 private:
  uint32_t record_size_;
  uint8_t fill_;
};

class StreamedYcsbEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(StreamedYcsbEquivalence, MatchesSerialOracleAcrossDepths) {
  const auto [depth, seed] = GetParam();
  constexpr int kTxns = 600;

  YcsbConfig ycsb;
  ycsb.record_count = 48;
  ycsb.record_size = 16;
  ycsb.theta = 0.9;  // contended: hot keys cross CC partitions constantly

  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 2;
  cfg.batch_size = 7;  // deliberately odd so batches straddle txn patterns
  cfg.pipeline_depth = depth;
  const Catalog catalog = YcsbCatalog(ycsb);
  BohmEngine engine(catalog, cfg);
  perfbench::SerialOracle oracle(catalog);
  ASSERT_TRUE(YcsbLoad(ycsb, testutil::LoadBoth(engine, oracle)).ok());
  ASSERT_TRUE(engine.Start().ok());

  Rng rng(seed);
  ScrambledZipf zipf(ycsb.record_count, ycsb.theta);
  for (int i = 0; i < kTxns; ++i) {
    std::vector<Key> keys;
    while (keys.size() < 4) {
      Key k = zipf.Next(rng);
      bool dup = false;
      for (Key seen : keys) dup = dup || seen == k;
      if (!dup) keys.push_back(k);
    }
    // A quarter of the transactions overwrite their records blindly.
    ProcedurePtr txn;
    if (rng.Uniform(4) == 0) {
      txn = std::make_unique<YcsbOverwriteProcedure>(
          keys, ycsb.record_size, static_cast<uint8_t>(rng.Uniform(255) + 1));
    } else {
      txn = std::make_unique<YcsbRmwProcedure>(keys, ycsb.record_size);
    }
    oracle.Execute(*txn);
    ASSERT_TRUE(engine.Submit(std::move(txn)).ok());
  }
  testutil::WaitForIdle(engine);
  testutil::ExpectMatchesOracle(engine, oracle, catalog);
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndSeeds, StreamedYcsbEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(7u, 21u)),
    [](const auto& param_info) {
      return "depth" + std::to_string(std::get<0>(param_info.param)) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// (a) Serial equivalence across pipeline depths, SmallBank mix.
// ---------------------------------------------------------------------------

class StreamedSmallBankEquivalence
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StreamedSmallBankEquivalence, MatchesSerialOracle) {
  const uint32_t depth = GetParam();
  SmallBankConfig sb;
  sb.customers = 24;  // high contention
  sb.spin_us = 0;

  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 9;
  cfg.pipeline_depth = depth;
  const Catalog catalog = SmallBankCatalog(sb);
  BohmEngine engine(catalog, cfg);
  perfbench::SerialOracle oracle(catalog);
  ASSERT_TRUE(SmallBankLoad(sb, testutil::LoadBoth(engine, oracle)).ok());
  ASSERT_TRUE(engine.Start().ok());
  SmallBankGenerator gen(sb, /*seed=*/99);
  for (int i = 0; i < 500; ++i) {
    ProcedurePtr p = gen.Make();
    oracle.Execute(*p);
    ASSERT_TRUE(engine.Submit(std::move(p)).ok());
  }
  testutil::WaitForIdle(engine);
  testutil::ExpectMatchesOracle(engine, oracle, catalog);
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(Depths, StreamedSmallBankEquivalence,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& param_info) {
                           return "depth" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// (b) Execution never enters a batch the CC watermark has not passed —
// even with a CC thread frozen mid-batch — and CC never starts a batch
// the sequencer has not sealed.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, ExecNeverObservesBatchBelowCcWatermark) {
  constexpr int64_t kFreezeBatch = 2;
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  std::atomic<bool> watermark_violated{false};
  std::atomic<bool> seal_violated{false};
  std::atomic<int64_t> max_exec_batch{-1};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    // The CC admission invariant: the sealed watermark (monotone) has
    // reached b before any CC thread starts it. On a violation, wait for
    // the seal so the test reports it instead of racing the sequencer.
    if (engine.last_sealed_batch() < b) {
      seal_violated.store(true, std::memory_order_release);
      (void)WaitUntil([&] { return engine.last_sealed_batch() >= b; });
    }
    if (cc_id == 0 && b == kFreezeBatch) {
      frozen.store(true, std::memory_order_release);
      release.Wait();  // CC thread 0 parks here, mid-batch
    }
  };
  hooks->exec_batch_start = [&](uint32_t, int64_t b) {
    // The admission invariant: min(cc_watermark) >= b at entry. The fold
    // is monotone, so reading it after admission cannot hide a violation.
    if (engine.CcWatermark() < b) {
      watermark_violated.store(true, std::memory_order_release);
    }
    int64_t seen = max_exec_batch.load(std::memory_order_relaxed);
    while (seen < b && !max_exec_batch.compare_exchange_weak(
                           seen, b, std::memory_order_acq_rel)) {
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 200;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }

  // CC thread 0 must reach the freeze point; its watermark is then stuck
  // at kFreezeBatch - 1, capping execution there no matter how far the
  // sequencer and CC thread 1 run ahead.
  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); })) << "never froze";
  ASSERT_TRUE(WaitUntil([&] { return engine.Watermark() >= kFreezeBatch - 1; }))
      << "execution did not reach the pre-freeze batches";
  // Give execution ample opportunity to (incorrectly) run ahead.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.CcWatermark(), kFreezeBatch - 1);
  EXPECT_EQ(engine.Watermark(), kFreezeBatch - 1);
  EXPECT_LE(max_exec_batch.load(), kFreezeBatch - 1);
  EXPECT_FALSE(watermark_violated.load());
  EXPECT_FALSE(seal_violated.load()) << "CC started a batch before its seal";

  release.Open();
  testutil::WaitForIdle(engine);
  EXPECT_FALSE(watermark_violated.load());
  EXPECT_FALSE(seal_violated.load()) << "CC started a batch before its seal";

  uint64_t total = 0;
  for (Key k = 0; k < 16; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (c) Overlap: execution commits batch b while a CC thread is inside
// batch b+1.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, ExecCommitsBatchWhileCcInsideNextBatch) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 4;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(8), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen_in_next{false};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == 1) {
      frozen_in_next.store(true, std::memory_order_release);
      release.Wait();  // CC thread 0 is now *inside* batch 1
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 60;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }

  ASSERT_TRUE(WaitUntil([&] { return frozen_in_next.load(); }))
      << "CC thread 0 never entered batch 1";
  // With CC thread 0 frozen inside batch 1, batch 0 is below the CC
  // watermark and must flow through execution to commit — the overlap the
  // barriered handoff's serialized schedule never exhibits under test
  // control. Watermark() >= 0 means every exec thread finished batch 0.
  ASSERT_TRUE(WaitUntil([&] { return engine.Watermark() >= 0; }))
      << "execution never committed batch 0 while CC was inside batch 1";
  EXPECT_TRUE(frozen_in_next.load());
  EXPECT_GT(engine.Stats().commits, 0u);

  release.Open();
  testutil::WaitForIdle(engine);
  uint64_t total = 0;
  for (Key k = 0; k < 8; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// (c) No silent barrier regression: CC threads cross batch boundaries
// independently. Under the replaced per-batch barrier, no CC thread could
// enter batch b+1 while a peer was still inside batch b.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, CcThreadsStreamIndependentlyAcrossBatches) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 1;
  cfg.batch_size = 2;
  cfg.pipeline_depth = 8;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  std::atomic<int64_t> cc1_max_batch{-1};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == 1) {
      frozen.store(true, std::memory_order_release);
      release.Wait();
    }
    if (cc_id == 1) {
      int64_t seen = cc1_max_batch.load(std::memory_order_relaxed);
      while (seen < b && !cc1_max_batch.compare_exchange_weak(
                             seen, b, std::memory_order_acq_rel)) {
      }
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 120;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 16)).ok());
  }

  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); }))
      << "CC thread 0 never entered batch 1";
  // Execution is pinned at batch 0 (CC fold stuck at 0), so the sequencer
  // can seal up to pipeline_depth batches — CC thread 1 must stream
  // through several of them while its peer stays frozen in batch 1. If
  // the handoff ever regresses to a barrier, CC thread 1 parks at batch 1
  // and this times out.
  ASSERT_TRUE(WaitUntil([&] { return cc1_max_batch.load() >= 3; }))
      << "CC stage regressed to lockstep: peer never streamed ahead of "
         "the frozen thread (cc1 reached batch "
      << cc1_max_batch.load() << ")";
  EXPECT_TRUE(frozen.load());

  release.Open();
  testutil::WaitForIdle(engine);
  uint64_t total = 0;
  for (Key k = 0; k < 16; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

// ---------------------------------------------------------------------------
// Stall attribution: a pipeline throttled at the CC stage charges the
// wait to the right stages.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, StallCountersAttributePipelineWait) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 1;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;
  cfg.input_queue_capacity = 1024;
  BohmEngine engine(OneTable(8), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());

  Gate release;
  std::atomic<bool> frozen{false};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->cc_batch_start = [&](uint32_t cc_id, int64_t b) {
    if (cc_id == 0 && b == 1) {
      frozen.store(true, std::memory_order_release);
      release.Wait();
    }
  };
  engine.set_test_hooks(hooks);
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kTxns = 100;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 8)).ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return frozen.load(); }));
  // While frozen: the exec thread waits on the CC watermark for batch 1
  // (exec stall); the sequencer finishes sealing up to the depth bound
  // and then waits for slot reuse (sequencer stall); CC thread 1 runs up
  // to the last sealed batch and waits for the next seal (CC stall).
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  release.Open();
  testutil::WaitForIdle(engine);

  const StatsSnapshot s = engine.Stats();
  EXPECT_GT(s.seq_stall_ns, 0u) << "sequencer back-pressure not attributed";
  EXPECT_GT(s.cc_stall_ns, 0u) << "CC seal wait not attributed";
  EXPECT_GT(s.exec_stall_ns, 0u) << "exec watermark wait not attributed";
  engine.Stop();
}

// ---------------------------------------------------------------------------
// Degenerate depth and watermark algebra.
// ---------------------------------------------------------------------------

TEST(BohmStreamingTest, DepthOnePipelineStreamsSerially) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 3;
  cfg.pipeline_depth = 1;  // one batch in flight: the serial reference point
  BohmEngine engine(OneTable(4), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 4; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.config().pipeline_depth, 1u);

  constexpr int kTxns = 300;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, i % 4)).ok());
  }
  testutil::WaitForIdle(engine);
  uint64_t total = 0;
  for (Key k = 0; k < 4; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(engine.Stats().commits, static_cast<uint64_t>(kTxns));
  engine.Stop();
}

TEST(BohmStreamingTest, WatermarksAreMonotoneAndOrdered) {
  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 2;
  cfg.batch_size = 5;
  cfg.pipeline_depth = 4;
  BohmEngine engine(OneTable(32), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 32; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> exec_regressed{false};
  std::atomic<bool> cc_regressed{false};
  std::atomic<bool> sealed_regressed{false};
  std::atomic<bool> order_violated{false};
  std::thread monitor([&] {
    int64_t last_exec = INT64_MIN, last_cc = INT64_MIN,
            last_sealed = INT64_MIN;
    while (!stop.load(std::memory_order_acquire)) {
      // Read downstream first: exec <= cc <= sealed holds for reads in
      // this order because each stage only admits batches its (monotone)
      // upstream watermark already passed.
      const int64_t e = engine.Watermark();
      const int64_t c = engine.CcWatermark();
      const int64_t s = engine.last_sealed_batch();
      if (e < last_exec) exec_regressed.store(true);
      if (c < last_cc) cc_regressed.store(true);
      if (s < last_sealed) sealed_regressed.store(true);
      if (e > c || c > s) order_violated.store(true);
      last_exec = e;
      last_cc = c;
      last_sealed = s;
      std::this_thread::yield();
    }
  });

  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine
                    .Submit(std::make_unique<IncrementProcedure>(
                        0, rng.Uniform(32)))
                    .ok());
  }
  testutil::WaitForIdle(engine);
  stop.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_FALSE(exec_regressed.load()) << "execution watermark regressed";
  EXPECT_FALSE(cc_regressed.load()) << "CC watermark regressed";
  EXPECT_FALSE(sealed_regressed.load()) << "sealed watermark regressed";
  EXPECT_FALSE(order_violated.load())
      << "a watermark overtook its upstream (exec <= CC <= sealed)";
  engine.Stop();
}

}  // namespace
}  // namespace bohm
