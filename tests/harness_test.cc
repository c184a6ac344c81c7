#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "harness/driver.h"
#include "harness/engines.h"
#include "harness/figures.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

TxnSourceMaker IncrementMaker(uint64_t keys) {
  return [keys](uint32_t tid) {
    auto rng = std::make_shared<Rng>(tid);
    return [rng, keys]() -> ProcedurePtr {
      return std::make_unique<IncrementProcedure>(0, rng->Uniform(keys));
    };
  };
}

// Both engine shapes run the one window loop: every driver thread parks
// (and Bohm drains) at each window edge before the engine is snapshotted,
// so the latency histogram holds exactly the window's commits, and the
// warmup's commits stay out of the window.
class WindowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowTest, CoversExactlyTheWindowsCommits) {
  DriverOptions opt;
  opt.warmup_ms = 30;
  opt.measure_ms = 60;
  uint64_t zero = 0;
  BenchResult r;
  uint64_t lifetime_commits = 0;
  if (GetParam() == "Bohm") {
    BohmConfig cfg;
    cfg.batch_size = 32;
    BohmEngine engine(OneTable(64), cfg);
    for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
    ASSERT_TRUE(engine.Start().ok());
    r = RunBohmBench(engine, IncrementMaker(64), 2, opt);
    lifetime_commits = engine.Stats().commits;
    engine.Stop();
  } else {
    auto engine = MakeExecutorEngine(EngineKind::k2PL, OneTable(64), 2);
    for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
    r = RunExecutorBench(*engine, IncrementMaker(64), opt);
    lifetime_commits = engine->Stats().commits;
  }
  ASSERT_GT(r.commits, 0u);
  EXPECT_EQ(r.latency_us.count(), r.commits);
  // Warmup ran for a comparable duration, so the engine's lifetime commit
  // total strictly exceeds the window's.
  EXPECT_GT(lifetime_commits, r.commits);
  EXPECT_GE(r.seconds, 0.06);
  EXPECT_GT(r.Throughput(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, WindowTest,
                         ::testing::Values("2PL", "Bohm"));

TEST(DriverTest, BohmCountCompletesAll) {
  BohmConfig cfg;
  cfg.batch_size = 16;
  BohmEngine engine(OneTable(64), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < 64; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());
  TxnSource source = IncrementMaker(64)(0);
  const StatsSnapshot before = engine.Stats();
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(engine.Submit(source()).ok());
  engine.WaitForIdle();
  EXPECT_EQ((engine.Stats() - before).commits, 500u);
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

// One point per line in a fixed key order ending with the log counters;
// only Bohm points carry gc_freed; the header names the host.
TEST(ReportTest, JsonNamesHostAndGivesOnlyBohmGcFreed) {
  Measurement executor;
  executor.point.system = "2PL";
  executor.point.executor = EngineKind::k2PL;
  executor.point.params = {{"threads", "2"}};
  Measurement bohm;
  bohm.point.system = "Bohm";
  bohm.result.log_fsyncs = 3;
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
  EXPECT_NE(line1.find("\"fsyncs\": 0}"), std::string::npos);
  EXPECT_EQ(line1.find("gc_freed"), std::string::npos);
  EXPECT_NE(line2.find("\"fsyncs\": 3, \"gc_freed\": 7}"),
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
