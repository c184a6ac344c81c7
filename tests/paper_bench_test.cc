// Every paper figure and ablation at its smoke size, run in-process
// through RunFigure, the path bench/paper_bench.cc takes. Per figure it
// checks that every point completes, that every Bohm point carries a real
// end-to-end latency distribution (lat_count == commits > 0 and
// 0 < p50 <= p99 <= p999) and names the CC/exec split the engine ran,
// that fig11's adaptive points migrate while its unmeasured gauges read
// 0, and, on optimized builds, that fig5's best Bohm 1-thread point
// clears a throughput floor (BOHM_SMOKE_MIN_TPUT, set by CMakeLists.txt;
// 0 turns it off).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "harness/figures.h"

namespace bohm {
namespace {

std::string Param(const Point& p, const std::string& key) {
  for (const auto& [k, v] : p.params) {
    if (k == key) return v;
  }
  return "";
}

std::vector<std::string> FigureNames() {
  std::vector<std::string> names;
  for (const Figure& f : Figures()) names.push_back(f.name);
  return names;
}

TEST(PaperBenchTable, EveryFigureHasItsName) {
  const std::vector<std::string> names = FigureNames();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
            (std::set<std::string>{
                "fig4_cc_scalability", "fig5_ycsb_10rmw", "fig6_ycsb_2rmw8r",
                "fig7_theta_sweep", "fig8_readonly_mix", "fig9_readonly_table",
                "fig10_smallbank", "fig11_hotspot", "abl_batch_size",
                "abl_commit_deps", "abl_durability", "abl_gc",
                "lat_profile"}));
  EXPECT_EQ(FindFigure("fig12"), nullptr);
}

class PaperBenchSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperBenchSmoke, EveryPointRuns) {
  const Figure* fig = FindFigure(GetParam());
  ASSERT_NE(fig, nullptr);
  std::vector<Measurement> runs;
  const Status st = RunFigure(*fig, SmokeScale(), &runs);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_FALSE(runs.empty());

  double best_bohm_1t = 0;
  for (const Measurement& m : runs) {
    SCOPED_TRACE(FormatRow(m));
    const BenchResult& r = m.result;
    EXPECT_EQ(r.latency_us.count(), r.commits);
    if (m.point.executor) {
      EXPECT_EQ(r.cc_imbalance_x1000, 0u);  // nothing measured it
      continue;
    }
    EXPECT_GT(r.commits, 0u);
    EXPECT_GT(r.P50Us(), 0u);
    EXPECT_LE(r.P50Us(), r.P99Us());
    EXPECT_LE(r.P99Us(), r.P999Us());
    EXPECT_EQ(Param(m.point, "cc_threads"), std::to_string(r.cc_threads));
    EXPECT_EQ(Param(m.point, "exec_threads"), std::to_string(r.exec_threads));
    if (Param(m.point, "variant") == "adaptive") {
      EXPECT_GT(r.cc_migrations, 0u);
      EXPECT_GT(r.cc_imbalance_x1000, 0u);
    } else if (Param(m.point, "variant") == "static") {
      EXPECT_EQ(r.cc_imbalance_x1000, 0u);
    }
    if (Param(m.point, "threads") == "1") {
      best_bohm_1t = std::max(best_bohm_1t, r.Throughput());
    }
  }
  if (GetParam() == "fig5_ycsb_10rmw" && BOHM_SMOKE_MIN_TPUT > 0) {
    // The barriered (pre-streaming) pipeline measured ~323K txn/s here;
    // the floor sits well below it because 50 ms windows on a loaded host
    // are noisy. It catches an order-of-magnitude regression, such as a
    // stage serialized against a sleeping wait.
    EXPECT_GE(best_bohm_1t, BOHM_SMOKE_MIN_TPUT);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, PaperBenchSmoke, ::testing::ValuesIn(FigureNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

}  // namespace
}  // namespace bohm
