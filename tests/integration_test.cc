// Cross-engine integration tests: the same workloads must produce
// equivalent observable behaviour on all five systems, matching the
// paper's premise that the engines differ in performance, not semantics.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "harness/engines.h"
#include "test_util.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace bohm {
namespace {

// ---------- SmallBank money conservation on every executor engine ----------

class ExecutorEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExecutorEngineTest, SmallBankConservingMixKeepsTotal) {
  SmallBankConfig cfg;
  cfg.customers = 20;
  cfg.spin_us = 0;
  const int64_t initial_total =
      static_cast<int64_t>(cfg.customers) *
      (cfg.initial_savings + cfg.initial_checking);

  auto engine = MakeExecutorEngine(GetParam(), SmallBankCatalog(cfg), 3);
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine->Load(t, k, p);
              }).ok());

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      SmallBankGenerator gen(cfg, 1000 + t);
      for (int i = 0; i < 400; ++i) {
        ProcedurePtr p = gen.MakeConserving();
        Status s = engine->Execute(*p, t);
        ASSERT_TRUE(s.ok() || s.IsAborted());
      }
    });
  }
  for (auto& th : threads) th.join();

  int64_t total = 0;
  for (Key c = 0; c < cfg.customers; ++c) {
    for (TableId t : {kSbSavingsTable, kSbCheckingTable}) {
      uint64_t raw = 0;
      bool found = false;
      GetProcedure get(t, c, &raw, &found);
      ASSERT_TRUE(engine->Execute(get, 0).ok());
      ASSERT_TRUE(found);
      total += static_cast<int64_t>(raw);
    }
  }
  EXPECT_EQ(total, initial_total) << engine->name();
}

TEST_P(ExecutorEngineTest, SmallBankSavingsNeverNegative) {
  // TransactSaving aborts on overdraft; no interleaving may break it.
  SmallBankConfig cfg;
  cfg.customers = 5;
  cfg.initial_savings = 50;
  auto engine = MakeExecutorEngine(GetParam(), SmallBankCatalog(cfg), 3);
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine->Load(t, k, p);
              }).ok());
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      SmallBankGenerator gen(cfg, 7 + t);
      for (int i = 0; i < 300; ++i) {
        ProcedurePtr p =
            gen.Make(SmallBankGenerator::TxnType::kTransactSaving);
        Status s = engine->Execute(*p, t);
        ASSERT_TRUE(s.ok() || s.IsAborted());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (Key c = 0; c < cfg.customers; ++c) {
    uint64_t raw = 0;
    bool found = false;
    GetProcedure get(kSbSavingsTable, c, &raw, &found);
    ASSERT_TRUE(engine->Execute(get, 0).ok());
    EXPECT_GE(static_cast<int64_t>(raw), 0) << engine->name();
  }
}

TEST_P(ExecutorEngineTest, YcsbRmwCountsAddUp) {
  // Total increments across the table == committed txns * 10.
  YcsbConfig cfg;
  cfg.record_count = 64;
  cfg.record_size = 64;
  cfg.theta = 0.6;
  auto engine = MakeExecutorEngine(GetParam(), YcsbCatalog(cfg), 2);
  ASSERT_TRUE(YcsbLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine->Load(t, k, p);
              }).ok());
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      YcsbGenerator gen(cfg, 17 + t);
      for (int i = 0; i < 200; ++i) {
        ProcedurePtr p = gen.Make(YcsbGenerator::TxnType::k10Rmw);
        ASSERT_TRUE(engine->Execute(*p, t).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (Key k = 0; k < cfg.record_count; ++k) {
    uint64_t v = 0;
    bool found = false;
    GetProcedure get(kYcsbTableId, k, &v, &found);
    ASSERT_TRUE(engine->Execute(get, 0).ok());
    total += v;
  }
  EXPECT_EQ(total, 2u * 200u * 10u) << engine->name();
}

INSTANTIATE_TEST_SUITE_P(AllExecutors, ExecutorEngineTest,
                         ::testing::Values(EngineKind::k2PL, EngineKind::kOCC,
                                           EngineKind::kSI,
                                           EngineKind::kHekaton),
                         [](const auto& param_info) {
                           return std::string(EngineKindName(param_info.param));
                         });

// ---------- The same properties on Bohm ----------

TEST(BohmIntegrationTest, SmallBankConservingMixKeepsTotal) {
  SmallBankConfig cfg;
  cfg.customers = 20;
  const int64_t initial_total =
      static_cast<int64_t>(cfg.customers) *
      (cfg.initial_savings + cfg.initial_checking);
  BohmConfig bcfg;
  bcfg.cc_threads = 2;
  bcfg.exec_threads = 2;
  bcfg.batch_size = 16;
  BohmEngine engine(SmallBankCatalog(cfg), bcfg);
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());
  SmallBankGenerator gen(cfg, 99);
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(engine.Submit(gen.MakeConserving()).ok());
  }
  engine.WaitForIdle();
  int64_t total = 0;
  for (Key c = 0; c < cfg.customers; ++c) {
    for (TableId t : {kSbSavingsTable, kSbCheckingTable}) {
      uint64_t raw = 0;
      ASSERT_TRUE(engine.ReadLatest(t, c, &raw).ok());
      total += static_cast<int64_t>(raw);
    }
  }
  EXPECT_EQ(total, initial_total);
  engine.Stop();
}

TEST(BohmIntegrationTest, SmallBankFullMixMatchesSerialReplay) {
  // Bohm's timestamp order is the serial order, so a single-threaded
  // replay of the same procedures must produce the identical final state —
  // including WriteCheck's read-dependent penalty and TransactSaving's
  // logic aborts.
  SmallBankConfig cfg;
  cfg.customers = 10;
  BohmConfig bcfg;
  bcfg.cc_threads = 2;
  bcfg.exec_threads = 3;
  bcfg.batch_size = 8;
  BohmEngine engine(SmallBankCatalog(cfg), bcfg);
  ASSERT_TRUE(SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Golden serial state; transactions are built explicitly from one Rng so
  // the replay below sees the exact same parameters.
  std::vector<int64_t> savings(cfg.customers, cfg.initial_savings);
  std::vector<int64_t> checking(cfg.customers, cfg.initial_checking);
  Rng rng(4242);
  for (int i = 0; i < 800; ++i) {
    uint32_t kind = static_cast<uint32_t>(rng.Uniform(4));
    Key c0 = rng.Uniform(cfg.customers);
    Key c1 = (c0 + 1 + rng.Uniform(cfg.customers - 1)) % cfg.customers;
    int64_t amount = static_cast<int64_t>(rng.Uniform(150)) - 40;
    ProcedurePtr p;
    switch (kind) {
      case 0:
        p = std::make_unique<DepositCheckingProcedure>(c0, amount, 0);
        checking[c0] += amount;
        break;
      case 1: {
        p = std::make_unique<TransactSavingProcedure>(c0, amount, 0);
        if (savings[c0] + amount >= 0) savings[c0] += amount;
        break;
      }
      case 2: {
        p = std::make_unique<AmalgamateProcedure>(c0, c1, 0);
        checking[c1] += savings[c0] + checking[c0];
        savings[c0] = 0;
        checking[c0] = 0;
        break;
      }
      default: {
        p = std::make_unique<WriteCheckProcedure>(c0, amount, 0);
        int64_t debit = amount;
        if (savings[c0] + checking[c0] < amount) debit += 1;
        checking[c0] -= debit;
        break;
      }
    }
    ASSERT_TRUE(engine.Submit(std::move(p)).ok());
  }
  engine.WaitForIdle();
  for (Key c = 0; c < cfg.customers; ++c) {
    uint64_t s = 0, ch = 0;
    ASSERT_TRUE(engine.ReadLatest(kSbSavingsTable, c, &s).ok());
    ASSERT_TRUE(engine.ReadLatest(kSbCheckingTable, c, &ch).ok());
    EXPECT_EQ(static_cast<int64_t>(s), savings[c]) << "savings " << c;
    EXPECT_EQ(static_cast<int64_t>(ch), checking[c]) << "checking " << c;
  }
  engine.Stop();
}

TEST(BohmIntegrationTest, LongScanObservesInvariantUnderUpdates) {
  // The paper's Section 4.2.3 scenario: long read-only transactions
  // concurrent with updates. Transfers preserve the table total; every
  // scan must observe exactly that total (serializability of read-only
  // transactions without any read tracking).
  YcsbConfig cfg;
  cfg.record_count = 32;
  cfg.record_size = 8;
  cfg.scan_size = 32;  // read the whole table
  BohmConfig bcfg;
  bcfg.cc_threads = 2;
  bcfg.exec_threads = 2;
  bcfg.batch_size = 8;
  BohmEngine engine(YcsbCatalog(cfg), bcfg);
  uint64_t hundred = 100;
  for (Key k = 0; k < cfg.record_count; ++k) {
    std::vector<char> payload(8, 0);
    std::memcpy(payload.data(), &hundred, 8);
    ASSERT_TRUE(engine.Load(kYcsbTableId, k, payload.data()).ok());
  }
  ASSERT_TRUE(engine.Start().ok());

  std::vector<std::unique_ptr<YcsbScanProcedure>> scans;
  Rng rng(31);
  for (int i = 0; i < 600; ++i) {
    if (i % 10 == 5) {
      std::vector<Key> all;
      for (Key k = 0; k < cfg.record_count; ++k) all.push_back(k);
      scans.push_back(std::make_unique<YcsbScanProcedure>(all));
      ASSERT_TRUE(engine.SubmitBorrowed(scans.back().get()).ok());
    } else {
      Key src = rng.Uniform(cfg.record_count);
      Key dst = rng.Uniform(cfg.record_count);
      while (dst == src) dst = rng.Uniform(cfg.record_count);
      ASSERT_TRUE(engine
                      .Submit(std::make_unique<testutil::TransferProcedure>(
                          kYcsbTableId, src, dst, rng.Uniform(20)))
                      .ok());
    }
  }
  engine.WaitForIdle();
  const uint64_t expected = 100u * cfg.record_count;
  for (const auto& s : scans) EXPECT_EQ(s->observed_sum(), expected);
  engine.Stop();
}

}  // namespace
}  // namespace bohm
