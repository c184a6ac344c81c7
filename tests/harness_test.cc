#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/driver.h"
#include "harness/engines.h"
#include "harness/figures.h"
#include "test_util.h"
#include "workload/micro.h"

namespace bohm {
namespace {

using testutil::OneTable;

TEST(DriverTest, ExecutorCountRunsExactly) {
  auto engine = MakeExecutorEngine(EngineKind::k2PL, OneTable(64), 2);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
  BenchResult r = RunExecutorCount(
      *engine,
      [&](uint32_t tid) {
        auto rng = std::make_shared<Rng>(tid);
        return [rng]() -> ProcedurePtr {
          return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
        };
      },
      100);
  EXPECT_EQ(r.commits, 200u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.Throughput(), 0.0);
}

TEST(DriverTest, ExecutorTimedWindowCommitsSomething) {
  auto engine = MakeExecutorEngine(EngineKind::kOCC, OneTable(64), 2);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
  DriverOptions opt;
  opt.warmup_ms = 10;
  opt.measure_ms = 50;
  BenchResult r = RunExecutorBench(
      *engine,
      [&](uint32_t tid) {
        auto rng = std::make_shared<Rng>(tid);
        return [rng]() -> ProcedurePtr {
          return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
        };
      },
      opt);
  EXPECT_GT(r.commits, 0u);
  EXPECT_NEAR(r.seconds, 0.05, 0.05);
}

TEST(DriverTest, BohmCountCompletesAll) {
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  BenchResult r = RunBohmCount(
      engine,
      [&](uint32_t tid) {
        auto rng = std::make_shared<Rng>(tid);
        return [rng]() -> ProcedurePtr {
          return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
        };
      },
      500);
  EXPECT_EQ(r.commits, 500u);
  engine.Stop();
}

TEST(DriverTest, BohmTimedWindow) {
  BohmConfig cfg;
  cfg.batch_size = 32;
  BohmEngine engine(OneTable(64), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  DriverOptions opt;
  opt.warmup_ms = 10;
  opt.measure_ms = 50;
  BenchResult r = RunBohmBench(
      engine,
      [&](uint32_t tid) {
        auto rng = std::make_shared<Rng>(tid);
        return [rng]() -> ProcedurePtr {
          return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
        };
      },
      1, opt);
  EXPECT_GT(r.commits, 0u);
  engine.Stop();
}

TEST(DriverTest, ExecutorWarmupExcludedFromWindow) {
  // The driver counts the window's commits under the same gate as the
  // latency samples, so warmup commits never enter the histogram and its
  // count equals the window's commits exactly.
  const uint32_t threads = 2;
  auto engine = MakeExecutorEngine(EngineKind::k2PL, OneTable(64), threads);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
  DriverOptions opt;
  opt.warmup_ms = 30;
  opt.measure_ms = 60;
  BenchResult r = RunExecutorBench(
      *engine,
      [&](uint32_t tid) {
        auto rng = std::make_shared<Rng>(tid);
        return [rng]() -> ProcedurePtr {
          return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
        };
      },
      opt);
  ASSERT_GT(r.commits, 0u);
  EXPECT_EQ(r.latency_us.count(), r.commits);
  // Warmup ran for a comparable duration, so the engine's lifetime commit
  // total strictly exceeds the window's.
  EXPECT_GT(engine->Stats().commits, r.commits);
}

TEST(DriverTest, BohmWarmupExcludedFromWindow) {
  // Both window edges are quiesced, so the histogram delta covers exactly
  // the window's commits — no warmup leakage in either direction.
  BohmConfig cfg;
  cfg.batch_size = 32;
  BohmEngine engine(OneTable(64), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  DriverOptions opt;
  opt.warmup_ms = 30;
  opt.measure_ms = 60;
  BenchResult r = RunBohmBench(
      engine,
      [&](uint32_t tid) {
        auto rng = std::make_shared<Rng>(tid);
        return [rng]() -> ProcedurePtr {
          return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
        };
      },
      2, opt);
  ASSERT_GT(r.commits, 0u);
  EXPECT_EQ(r.latency_us.count(), r.commits);
  EXPECT_GT(engine.Stats().commits, r.commits);
  engine.Stop();
}

TEST(DriverTest, BohmRepeatedCountWindowsExact) {
  // Back-to-back fixed-count runs on one engine: each window's commit and
  // histogram counts are exact despite the monotonically growing
  // engine-side counters.
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  auto maker = [&](uint32_t tid) {
    auto rng = std::make_shared<Rng>(tid);
    return [rng]() -> ProcedurePtr {
      return std::make_unique<IncrementProcedure>(0, rng->Uniform(64));
    };
  };
  for (int round = 0; round < 3; ++round) {
    BenchResult r = RunBohmCount(engine, maker, 200);
    EXPECT_EQ(r.commits, 200u) << "round " << round;
    EXPECT_EQ(r.latency_us.count(), 200u) << "round " << round;
  }
  EXPECT_EQ(engine.Stats().commits, 600u);
  engine.Stop();
}

TEST(SweepTest, BohmSplitCoversCases) {
  BohmConfig c1 = BohmSplit(1);
  EXPECT_EQ(c1.cc_threads, 1u);
  EXPECT_EQ(c1.exec_threads, 1u);
  BohmConfig c4 = BohmSplit(4);
  EXPECT_EQ(c4.cc_threads + c4.exec_threads, 4u);
  BohmConfig c5 = BohmSplit(5);
  EXPECT_EQ(c5.cc_threads + c5.exec_threads, 5u);
  BohmConfig c0 = BohmSplit(0);
  EXPECT_GE(c0.cc_threads, 1u);
  EXPECT_GE(c0.exec_threads, 1u);
}

TEST(ReportTest, FormatTput) {
  EXPECT_EQ(FormatTput(2'500'000), "2.50M");
  EXPECT_EQ(FormatTput(12'300), "12.3K");
  EXPECT_EQ(FormatTput(42), "42");
}

std::string JsonOf(const std::vector<Measurement>& points) {
  std::FILE* f = std::tmpfile();
  WriteJson(f, "fig_test", points);
  std::rewind(f);
  std::string out;
  for (int c; (c = std::fgetc(f)) != EOF;) out += static_cast<char>(c);
  std::fclose(f);
  return out;
}

// An unmeasured imbalance gauge prints as null, not as perfect balance;
// only Bohm points carry gc_freed; the header names the host.
TEST(ReportTest, JsonMarksUnmeasuredGaugeNull) {
  Measurement executor;
  executor.point.system = "2PL";
  executor.point.executor = EngineKind::k2PL;
  executor.point.params = {{"threads", "2"}};
  Measurement bohm;
  bohm.point.system = "Bohm";
  bohm.result.cc_imbalance_x1000 = 1250;
  bohm.result.gc_freed = 7;
  const std::string json = JsonOf({executor, bohm});
  EXPECT_NE(json.find("\"figure\": \"fig_test\", \"nproc\": "),
            std::string::npos);
  EXPECT_NE(json.find("\"compiler\": "), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": "), std::string::npos);
  const size_t second = json.find("{\"system\": \"Bohm\"");
  ASSERT_NE(second, std::string::npos);
  const std::string line1 = json.substr(0, second);
  const std::string line2 = json.substr(second);
  EXPECT_NE(line1.find("\"threads\": \"2\""), std::string::npos);
  EXPECT_NE(line1.find("\"cc_imbalance\": null}"), std::string::npos);
  EXPECT_EQ(line1.find("gc_freed"), std::string::npos);
  EXPECT_NE(line2.find("\"cc_imbalance\": 1.250, \"gc_freed\": 7}"),
            std::string::npos);
}

TEST(ReportTest, BenchResultMath) {
  BenchResult r;
  r.seconds = 2.0;
  r.commits = 100;
  r.cc_aborts = 100;
  EXPECT_DOUBLE_EQ(r.Throughput(), 50.0);
  EXPECT_DOUBLE_EQ(r.AbortRate(), 0.5);
}

TEST(EngineFactoryTest, NamesMatch) {
  Catalog c = OneTable(4);
  EXPECT_STREQ(MakeExecutorEngine(EngineKind::k2PL, c, 1)->name(), "2PL");
  EXPECT_STREQ(MakeExecutorEngine(EngineKind::kOCC, c, 1)->name(), "OCC");
  EXPECT_STREQ(MakeExecutorEngine(EngineKind::kSI, c, 1)->name(), "SI");
  EXPECT_STREQ(MakeExecutorEngine(EngineKind::kHekaton, c, 1)->name(),
               "Hekaton");
}

}  // namespace
}  // namespace bohm
