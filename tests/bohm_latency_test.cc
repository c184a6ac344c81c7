// End-to-end latency accounting through the Bohm pipeline: transactions
// are stamped at Submit(), the latency is recorded when the execution
// thread responsible for the transaction finds its stripe of the batch
// complete (the commit-ack point), and a window is the difference of two
// engine snapshots taken with the pipeline drained. These tests pin down the
// user-visible invariants: non-zero monotone percentiles, and an exact
// histogram-count == commit-count correspondence for every window, also
// when transactions run on an execution thread other than the one that
// acknowledges them.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "bohm/engine.h"
#include "common/rand.h"
#include "harness/driver.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

BohmEngine& LoadedEngine(BohmEngine& engine, uint64_t keys) {
  uint64_t zero = 0;
  for (Key k = 0; k < keys; ++k) EXPECT_TRUE(engine.Load(0, k, &zero).ok());
  EXPECT_TRUE(engine.Start().ok());
  return engine;
}

TxnSourceMaker IncrementMaker(uint64_t keys) {
  return [keys](uint32_t tid) {
    auto rng = std::make_shared<Rng>(tid);
    return [rng, keys]() -> ProcedurePtr {
      return std::make_unique<IncrementProcedure>(0, rng->Uniform(keys));
    };
  };
}

TEST(BohmLatencyTest, TimedWindowPercentilesNonZeroAndMonotone) {
  BohmConfig cfg;
  cfg.batch_size = 32;
  BohmEngine engine(OneTable(64), cfg);
  LoadedEngine(engine, 64);
  DriverOptions opt;
  opt.warmup_ms = 20;
  opt.measure_ms = 80;
  BenchResult r = RunBohmBench(engine, IncrementMaker(64), 2, opt);
  ASSERT_GT(r.commits, 0u);
  ASSERT_GT(r.latency_us.count(), 0u);
  // Latency is ceil'd to whole microseconds at the recording site, so a
  // committed transaction can never contribute a zero sample.
  EXPECT_GT(r.P50Us(), 0u);
  EXPECT_GT(r.P99Us(), 0u);
  EXPECT_LE(r.P50Us(), r.P99Us());
  EXPECT_LE(r.P99Us(), r.P999Us());
  EXPECT_GT(r.latency_us.max(), 0u);
  EXPECT_GT(r.latency_us.Mean(), 0.0);
  engine.Stop();
}

// Submits `n` transactions from `source`, drains the pipeline and returns
// the window between the snapshots before and after.
StatsSnapshot SubmitAll(BohmEngine& engine, TxnSource& source, uint64_t n) {
  const StatsSnapshot before = engine.Stats();
  for (uint64_t i = 0; i < n; ++i) EXPECT_TRUE(engine.Submit(source()).ok());
  engine.WaitForIdle();
  return engine.Stats() - before;
}

TEST(BohmLatencyTest, CountRunRecordsEverySubmission) {
  // The pipeline is drained before the closing snapshot, so all N
  // submissions appear in both the commit count and the histogram.
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  LoadedEngine(engine, 64);
  TxnSource source = IncrementMaker(64)(0);
  const StatsSnapshot w = SubmitAll(engine, source, 400);
  EXPECT_EQ(w.commits, 400u);
  EXPECT_EQ(w.latency_us.count(), 400u);
  EXPECT_GT(w.latency_us.Percentile(0.50), 0u);
  EXPECT_LE(w.latency_us.Percentile(0.50), w.latency_us.Percentile(0.999));
  engine.Stop();
}

TEST(BohmLatencyTest, LatencyCoversPipelineNotJustExecution) {
  // A submit-stamped transaction spends time in the input queue, the
  // sequencer batch, and the CC stage before execution; with a small
  // batch size the whole pipeline still adds at least the execution
  // time, so the mean must be >= 1us (the recording floor) and the max
  // must be >= the p50.
  BohmConfig cfg;
  cfg.batch_size = 8;
  BohmEngine engine(OneTable(32), cfg);
  LoadedEngine(engine, 32);
  TxnSource source = IncrementMaker(32)(0);
  const StatsSnapshot w = SubmitAll(engine, source, 100);
  ASSERT_EQ(w.latency_us.count(), 100u);
  EXPECT_GE(w.latency_us.Mean(), 1.0);
  EXPECT_GE(w.latency_us.max(), 1u);
  EXPECT_LE(w.latency_us.Percentile(0.50), w.latency_us.max() * 2);
  engine.Stop();
}

TEST(BohmLatencyTest, EngineHistogramGrowsMonotonically) {
  // The engine-side counters and folded histogram only grow, so
  // back-to-back windows on one engine are each exact snapshot deltas.
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  LoadedEngine(engine, 64);
  TxnSource source = IncrementMaker(64)(0);
  for (uint64_t round = 1; round <= 3; ++round) {
    const StatsSnapshot w = SubmitAll(engine, source, 150);
    EXPECT_EQ(w.commits, 150u) << "round " << round;
    EXPECT_EQ(w.latency_us.count(), 150u) << "round " << round;
    const StatsSnapshot total = engine.Stats();
    EXPECT_EQ(total.commits, 150u * round);
    EXPECT_EQ(total.latency_us.count(), 150u * round);
  }
  engine.Stop();
}

/// One link of a hot-key chain: increments the counter at key 0, unless
/// (value + salt) % 5 == 0, in which case its logic aborts. Each link reads
/// the version the previous link produced, so an execution thread that
/// reaches a link first evaluates its unexecuted predecessors itself,
/// whichever thread is responsible for them.
class ChainLink final : public StoredProcedure {
 public:
  explicit ChainLink(uint64_t salt) : salt_(salt) { set_.AddRmw(0, 0); }
  void Run(TxnOps& ops) override {
    const uint64_t v = testutil::ReadU64(ops, 0, 0);
    if (Aborts(v, salt_)) {
      ops.Abort();
      return;
    }
    testutil::WriteU64(ops, 0, 0, v + 1);
  }
  static bool Aborts(uint64_t value, uint64_t salt) {
    return (value + salt) % 5 == 0;
  }

 private:
  uint64_t salt_;
};

TEST(BohmLatencyTest, StripeOwnerCountsEveryTransactionOnce) {
  // Three exec threads and small batches over one hot key: most links run
  // through dependency recursion on a thread that is not responsible for
  // them. Each must still be acknowledged exactly once, by its stripe's
  // owner, as a commit with one latency sample or as a logic abort.
  BohmConfig cfg;
  cfg.cc_threads = 1;
  cfg.exec_threads = 3;
  cfg.batch_size = 6;
  cfg.pipeline_depth = 4;
  BohmEngine engine(OneTable(1), cfg);
  LoadedEngine(engine, 1);
  Rng rng(2024);
  uint64_t serial_value = 0;  // the chain replayed serially, in log order
  constexpr uint64_t kTxns = 600;
  for (int window = 0; window < 3; ++window) {
    uint64_t expected_aborts = 0;
    const StatsSnapshot before = engine.Stats();
    for (uint64_t i = 0; i < kTxns; ++i) {
      const uint64_t salt = rng.Uniform(1000);
      if (ChainLink::Aborts(serial_value, salt)) {
        ++expected_aborts;
      } else {
        ++serial_value;
      }
      ASSERT_TRUE(engine.Submit(std::make_unique<ChainLink>(salt)).ok());
    }
    // A bounded WaitForIdle: a transaction nobody acknowledges fails the
    // count below instead of hanging the test.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      const StatsSnapshot s = engine.Stats();
      if (s.commits + s.logic_aborts >= engine.submitted() ||
          std::chrono::steady_clock::now() > deadline) {
        break;
      }
      std::this_thread::yield();
    }
    const StatsSnapshot w = engine.Stats() - before;
    EXPECT_EQ(w.commits + w.logic_aborts, kTxns) << "window " << window;
    EXPECT_EQ(w.latency_us.count(), w.commits) << "window " << window;
    EXPECT_EQ(w.logic_aborts, expected_aborts) << "window " << window;
    EXPECT_GT(expected_aborts, 0u) << "window " << window;
  }
  uint64_t out = 0;
  ASSERT_TRUE(engine.ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, serial_value);
  engine.Stop();
}

}  // namespace
}  // namespace bohm
