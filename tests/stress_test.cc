// Heavier multi-threaded stress runs, kept deterministic in their
// *observables* (conservation sums, exactly-once counters) even though
// scheduling is not. These run longer than the unit suites and act as the
// failure-injection net for the invariants the paper's protocol promises.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "harness/engines.h"
#include "test_util.h"
#include "workload/smallbank.h"

namespace bohm {
namespace {

using testutil::OneTable;

TEST(StressTest, BohmHighChurnWithReadersAndAborts) {
  // Tiny pipeline + tiny batches + GC + logic aborts + concurrent client
  // threads + pair readers: every knob that has ever broken a version
  // store, at once.
  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 3;
  cfg.batch_size = 8;
  cfg.pipeline_depth = 2;
  cfg.max_dependency_depth = 3;
  constexpr uint64_t kKeys = 4, kInitial = 10'000;
  BohmEngine engine(OneTable(kKeys), cfg);
  uint64_t init = kInitial;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(engine.Load(0, k, &init).ok());
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kClients = 3, kPerClient = 1500;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(7000 + c);
      for (int i = 0; i < kPerClient; ++i) {
        switch (rng.Uniform(4)) {
          case 0:
            // Keys 0 and 1 exchange money with 2 and 3 too, so the pair
            // sum is not invariant: the reader only has to complete, and
            // the table total below checks the snapshot property.
            ASSERT_TRUE(engine
                            .Submit(std::make_unique<testutil::ReadPairProcedure>(
                                0, 0, 1, nullptr))
                            .ok());
            break;
          case 1:
            ASSERT_TRUE(engine
                            .Submit(std::make_unique<testutil::AbortingIncrement>(
                                0, rng.Uniform(kKeys)))
                            .ok());
            break;
          default: {
            Key src = rng.Uniform(kKeys);
            Key dst = rng.Uniform(kKeys);
            while (dst == src) dst = rng.Uniform(kKeys);
            ASSERT_TRUE(engine
                            .Submit(std::make_unique<testutil::TransferProcedure>(
                                0, src, dst, rng.Uniform(100)))
                            .ok());
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  engine.WaitForIdle();
  uint64_t total = 0;
  for (Key k = 0; k < kKeys; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, kKeys * kInitial);
  EXPECT_GT(engine.gc_freed_versions(), 0u);
  engine.Stop();
}

TEST(StressTest, BohmFullTableScansAlwaysSeeInvariantTotal) {
  // Readers that scan the WHOLE table (declared read set over all keys)
  // have a truly invariant observable under transfers: the grand total.
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 3;
  cfg.batch_size = 16;
  constexpr uint64_t kKeys = 8, kInitial = 1000;
  BohmEngine engine(OneTable(kKeys), cfg);
  uint64_t init = kInitial;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(engine.Load(0, k, &init).ok());
  ASSERT_TRUE(engine.Start().ok());

  class ScanAll final : public StoredProcedure {
   public:
    ScanAll(uint64_t keys, uint64_t* sum) : keys_(keys), sum_(sum) {
      for (Key k = 0; k < keys; ++k) set_.AddRead(0, k);
    }
    void Run(TxnOps& ops) override {
      uint64_t sum = 0;
      for (Key k = 0; k < keys_; ++k) sum += testutil::ReadU64(ops, 0, k);
      *sum_ = sum;
    }

   private:
    uint64_t keys_;
    uint64_t* sum_;
  };

  std::deque<uint64_t> sums;  // never moves a slot a scan still writes
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    if (i % 7 == 3) {
      sums.push_back(0);
      ASSERT_TRUE(
          engine.Submit(std::make_unique<ScanAll>(kKeys, &sums.back())).ok());
    } else {
      Key src = rng.Uniform(kKeys);
      Key dst = rng.Uniform(kKeys);
      while (dst == src) dst = rng.Uniform(kKeys);
      ASSERT_TRUE(engine
                      .Submit(std::make_unique<testutil::TransferProcedure>(
                          0, src, dst, rng.Uniform(250)))
                      .ok());
    }
  }
  engine.WaitForIdle();
  for (uint64_t sum : sums) EXPECT_EQ(sum, kKeys * kInitial);
  engine.Stop();
}

class ExecutorStress : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExecutorStress, MixedSmallBankUnderHighContention) {
  // Full five-transaction SmallBank mix, 5 customers, 4 threads: the
  // worst contention the paper's Figure 10 exercises. Afterwards, the
  // books must satisfy: total = initial + deposits - withdrawals, which
  // we cannot know without replay — so check the machine-checkable
  // subset: savings >= 0 and every transaction either committed or
  // logic-aborted (no lost transactions).
  SmallBankConfig cfg;
  cfg.customers = 5;
  auto engine = MakeExecutorEngine(GetParam(), SmallBankCatalog(cfg), 4);
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine->Load(t, k, p);
              }).ok());
  constexpr int kPerThread = 600;
  std::atomic<uint64_t> outcomes{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SmallBankGenerator gen(cfg, 31337 + t);
      for (int i = 0; i < kPerThread; ++i) {
        ProcedurePtr p = gen.Make();
        Status s = engine->Execute(*p, t);
        ASSERT_TRUE(s.ok() || s.IsAborted()) << s.ToString();
        outcomes.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(outcomes.load(), 4u * kPerThread);
  StatsSnapshot s = engine->Stats();
  EXPECT_EQ(s.commits + s.logic_aborts, 4u * kPerThread);
  for (Key c = 0; c < cfg.customers; ++c) {
    uint64_t raw = 0;
    ASSERT_TRUE(engine->ReadLatest(kSbSavingsTable, c, &raw).ok());
    EXPECT_GE(static_cast<int64_t>(raw), 0) << engine->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, ExecutorStress,
                         ::testing::Values(EngineKind::k2PL, EngineKind::kOCC,
                                           EngineKind::kSI,
                                           EngineKind::kHekaton),
                         [](const auto& param_info) {
                           return std::string(EngineKindName(param_info.param));
                         });

TEST(StressTest, BohmSmallBankFullMixHighContention) {
  SmallBankConfig cfg;
  cfg.customers = 5;
  BohmConfig bcfg;
  bcfg.cc_threads = 2;
  bcfg.exec_threads = 3;
  bcfg.batch_size = 16;
  BohmEngine engine(SmallBankCatalog(cfg), bcfg);
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());
  SmallBankGenerator gen(cfg, 2222);
  constexpr int kTxns = 3000;
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(engine.Submit(gen.Make()).ok());
  }
  engine.WaitForIdle();
  StatsSnapshot s = engine.Stats();
  EXPECT_EQ(s.commits + s.logic_aborts, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(s.cc_aborts, 0u);
  for (Key c = 0; c < cfg.customers; ++c) {
    uint64_t raw = 0;
    ASSERT_TRUE(engine.ReadLatest(kSbSavingsTable, c, &raw).ok());
    EXPECT_GE(static_cast<int64_t>(raw), 0);
  }
  engine.Stop();
}

}  // namespace
}  // namespace bohm
