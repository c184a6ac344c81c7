// Pipeline-level behaviour of the Bohm engine: multi-client submission,
// back-pressure through tiny rings, partial-batch sealing, interest
// pre-processing, large records, and configuration edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;
using testutil::RunSync;

TEST(BohmPipelineTest, MultipleClientThreadsSubmitConcurrently) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 32;
  BohmEngine engine(OneTable(16), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 16; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  constexpr int kClients = 4, kPerClient = 500;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(c);
      for (int i = 0; i < kPerClient; ++i) {
        ASSERT_TRUE(engine
                        .Submit(std::make_unique<IncrementProcedure>(
                            0, rng.Uniform(16)))
                        .ok());
      }
    });
  }
  for (auto& c : clients) c.join();
  testutil::WaitForIdle(engine);

  uint64_t total = 0;
  for (Key k = 0; k < 16; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &v).ok());
    total += v;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(engine.Stats().commits,
            static_cast<uint64_t>(kClients) * kPerClient);
  engine.Stop();
}

TEST(BohmPipelineTest, TinyPipelineBackpressureIsCorrect) {
  // pipeline_depth=2 with batch_size=1 forces constant slot reuse and
  // sequencer back-pressure; all effects must still apply exactly once.
  BohmConfig cfg;
  cfg.pipeline_depth = 2;
  cfg.batch_size = 1;
  cfg.input_queue_capacity = 4;
  BohmEngine engine(OneTable(2), cfg);
  uint64_t zero = 0;
  ASSERT_TRUE(engine.Load(0, 0, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  }
  testutil::WaitForIdle(engine);
  uint64_t out = 0;
  ASSERT_TRUE(engine.ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, static_cast<uint64_t>(kN));
  engine.Stop();
}

TEST(BohmPipelineTest, PartialBatchSealsWithoutMoreInput) {
  // A single transaction must complete promptly even with a huge batch
  // size: the sequencer seals a partial batch when the queue runs dry.
  BohmConfig cfg;
  cfg.batch_size = 100000;
  BohmEngine engine(OneTable(2), cfg);
  uint64_t zero = 0;
  ASSERT_TRUE(engine.Load(0, 0, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(RunSync(engine, std::make_unique<IncrementProcedure>(0, 0)).ok());
  uint64_t out = 0;
  ASSERT_TRUE(engine.ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 1u);
  engine.Stop();
}

TEST(BohmPipelineTest, InterestSkippingMatchesSerialOracle) {
  // Four CC threads over single-key transactions: every CC thread skips
  // most transactions on the sequencer's interest mask, and the result
  // must still match the serial oracle. A quarter of them overwrite
  // their record blindly, so a key's updates do not commute and the
  // state shows the order CC linked its versions in.
  BohmConfig cfg;
  cfg.cc_threads = 4;
  cfg.exec_threads = 2;
  cfg.batch_size = 16;
  const Catalog catalog = OneTable(32);
  BohmEngine engine(catalog, cfg);
  perfbench::SerialOracle oracle(catalog);
  auto load = testutil::LoadBoth(engine, oracle);
  const uint64_t zero = 0;
  for (Key k = 0; k < 32; ++k) ASSERT_TRUE(load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  Rng rng(55);
  for (int i = 0; i < 800; ++i) {
    Key k = rng.Uniform(32);
    ProcedurePtr txn;
    if (rng.Uniform(4) == 0) {
      txn = std::make_unique<PutProcedure>(0, k, rng.Uniform(1000));
    } else {
      txn = std::make_unique<IncrementProcedure>(0, k, rng.Uniform(9) + 1);
    }
    oracle.Execute(*txn);
    ASSERT_TRUE(engine.Submit(std::move(txn)).ok());
  }
  testutil::WaitForIdle(engine);
  testutil::ExpectMatchesOracle(engine, oracle, catalog);
  engine.Stop();
}

TEST(BohmPipelineTest, LargeRecordsRoundTrip) {
  TableSpec spec;
  spec.id = 0;
  spec.name = "big";
  spec.record_size = 1000;
  spec.capacity = 8;
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(std::move(spec)).ok());
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  BohmEngine engine(catalog, cfg);
  std::vector<char> init(1000, 0x11);
  ASSERT_TRUE(engine.Load(0, 0, init.data()).ok());
  ASSERT_TRUE(engine.Start().ok());

  class BigRmw final : public StoredProcedure {
   public:
    BigRmw() { set_.AddRmw(0, 0); }
    void Run(TxnOps& ops) override {
      const void* old = ops.Read(0, 0);
      void* buf = ops.Write(0, 0);
      std::memcpy(buf, old, 1000);
      static_cast<char*>(buf)[500] += 1;
    }
  };
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Submit(std::make_unique<BigRmw>()).ok());
  }
  testutil::WaitForIdle(engine);
  std::vector<char> out(1000);
  ASSERT_TRUE(engine.ReadLatest(0, 0, out.data()).ok());
  EXPECT_EQ(out[0], 0x11);
  EXPECT_EQ(out[500], static_cast<char>(0x11 + 50));
  EXPECT_EQ(out[999], 0x11);
  engine.Stop();
}

TEST(BohmPipelineTest, MultiTableTransactions) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(TableSpec{0, "a", 8, 8}).ok());
  ASSERT_TRUE(catalog.AddTable(TableSpec{1, "b", 8, 8}).ok());
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  BohmEngine engine(catalog, cfg);
  uint64_t hundred = 100;
  for (Key k = 0; k < 8; ++k) {
    ASSERT_TRUE(engine.Load(0, k, &hundred).ok());
    ASSERT_TRUE(engine.Load(1, k, &hundred).ok());
  }
  ASSERT_TRUE(engine.Start().ok());

  // Move value from table 0 to table 1 atomically.
  class CrossTableMove final : public StoredProcedure {
   public:
    CrossTableMove(Key k, uint64_t amt) : k_(k), amt_(amt) {
      set_.AddRmw(0, k);
      set_.AddRmw(1, k);
    }
    void Run(TxnOps& ops) override {
      uint64_t a = testutil::ReadU64(ops, 0, k_);
      uint64_t b = testutil::ReadU64(ops, 1, k_);
      testutil::WriteU64(ops, 0, k_, a - amt_);
      testutil::WriteU64(ops, 1, k_, b + amt_);
    }

   private:
    Key k_;
    uint64_t amt_;
  };
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<CrossTableMove>(i % 8, 1)).ok());
  }
  testutil::WaitForIdle(engine);
  for (Key k = 0; k < 8; ++k) {
    uint64_t a = 0, b = 0;
    ASSERT_TRUE(engine.ReadLatest(0, k, &a).ok());
    ASSERT_TRUE(engine.ReadLatest(1, k, &b).ok());
    EXPECT_EQ(a + b, 200u);
    EXPECT_EQ(a, 100u - 25u);
    EXPECT_EQ(b, 100u + 25u);
  }
  engine.Stop();
}

TEST(BohmPipelineTest, EmptyFootprintTransactionCompletes) {
  BohmConfig cfg;
  BohmEngine engine(OneTable(2), cfg);
  ASSERT_TRUE(engine.Start().ok());
  class Noop final : public StoredProcedure {
   public:
    explicit Noop(bool* ran) : ran_(ran) {}
    void Run(TxnOps&) override { *ran_ = true; }

   private:
    bool* ran_;
  };
  bool ran = false;
  ASSERT_TRUE(RunSync(engine, std::make_unique<Noop>(&ran)).ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.Stats().commits, 1u);
  engine.Stop();
}

TEST(BohmPipelineTest, ManyCcThreadsFewKeys) {
  // More CC threads than distinct keys: some partitions are empty for
  // every transaction; barriers must still align.
  BohmConfig cfg;
  cfg.cc_threads = 8;
  cfg.exec_threads = 2;
  cfg.batch_size = 4;
  BohmEngine engine(OneTable(2), cfg);
  uint64_t zero = 0;
  ASSERT_TRUE(engine.Load(0, 0, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        engine.Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  }
  testutil::WaitForIdle(engine);
  uint64_t out = 0;
  ASSERT_TRUE(engine.ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 200u);
  engine.Stop();
}

TEST(BohmPipelineTest, SubmittedCounterTracks) {
  BohmConfig cfg;
  BohmEngine engine(OneTable(2), cfg);
  uint64_t zero = 0;
  ASSERT_TRUE(engine.Load(0, 0, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.submitted(), 0u);
  ASSERT_TRUE(engine.Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  ASSERT_TRUE(engine.Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  EXPECT_EQ(engine.submitted(), 2u);
  testutil::WaitForIdle(engine);
  engine.Stop();
}

}  // namespace
}  // namespace bohm
