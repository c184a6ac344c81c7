// Cross-engine serial-equivalence property tests.
//
// With one client, every engine's serial order is the submission order,
// so every engine must end in exactly the state of the serial oracle
// (perfbench/oracle.h) run over the same procedure objects. This pins
// down the data-path semantics (RMW reads, blind writes, logic aborts,
// full-record copies) engine by engine; and since each engine matches the
// oracle, all five agree with each other.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bohm/engine.h"
#include "common/rand.h"
#include "harness/engines.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::ExpectMatchesOracle;
using testutil::OneTable;

constexpr uint64_t kKeys = 24;
constexpr int kTxns = 1000;

/// One pseudo-random transaction: an increment, a transfer, a
/// read-then-blind-write, or a logic abort.
ProcedurePtr NextTxn(Rng& rng) {
  int kind = static_cast<int>(rng.Uniform(4));
  Key a = rng.Uniform(kKeys);
  Key b = rng.Uniform(kKeys);
  while (b == a) b = rng.Uniform(kKeys);
  switch (kind) {
    case 0:
      return std::make_unique<IncrementProcedure>(0, a, rng.Uniform(100));
    case 1:
      return std::make_unique<testutil::TransferProcedure>(0, a, b,
                                                           rng.Uniform(50));
    case 2:
      return testutil::MakeMulWrite(0, a, b, rng.Uniform(3) + 1);
    default:
      return std::make_unique<testutil::AbortingIncrement>(0, a);
  }
}

/// Loads kKeys zero records into `engine` and `oracle`.
template <typename Engine>
void LoadZeros(Engine& engine, perfbench::SerialOracle& oracle) {
  auto load = testutil::LoadBoth(engine, oracle);
  const uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(load(0, k, &zero).ok());
}

class SerialEquivalence
    : public ::testing::TestWithParam<std::tuple<EngineKind, uint64_t>> {};

TEST_P(SerialEquivalence, SingleThreadMatchesSerialOracle) {
  const auto [kind, seed] = GetParam();
  const Catalog catalog = OneTable(kKeys);
  auto engine = MakeExecutorEngine(kind, catalog, 1);
  perfbench::SerialOracle oracle(catalog);
  LoadZeros(*engine, oracle);
  Rng rng(seed);
  for (int i = 0; i < kTxns; ++i) {
    ProcedurePtr p = NextTxn(rng);
    oracle.Execute(*p);
    Status s = engine->Execute(*p, 0);
    ASSERT_TRUE(s.ok() || s.IsAborted());
  }
  ExpectMatchesOracle(*engine, oracle, catalog);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, SerialEquivalence,
    ::testing::Combine(::testing::Values(EngineKind::k2PL, EngineKind::kOCC,
                                         EngineKind::kSI,
                                         EngineKind::kHekaton),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 777u)),
    [](const auto& param_info) {
      return std::string(EngineKindName(std::get<0>(param_info.param))) +
             "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// Bohm is checked at pipeline depths 1, 2 and 8: depth 1 is the serial
// reference point (one batch in flight, no overlap), depth 2 is the
// minimal streamed pipeline, depth 8 lets the sequencer and CC stage run
// well ahead of execution. Equivalence across all three proves the
// streamed epoch-watermark handoff never lets stage overlap leak into
// the committed state. Each depth runs on a wide pipeline (3 CC, 3 exec,
// odd batches) and on the default configuration.
class BohmSeedEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t, bool>> {};

TEST_P(BohmSeedEquivalence, PipelineMatchesSerialOracle) {
  const auto [seed, depth, wide] = GetParam();
  BohmConfig cfg;
  if (wide) {
    cfg.cc_threads = 3;
    cfg.exec_threads = 3;
    cfg.batch_size = 13;
  }
  cfg.pipeline_depth = depth;
  const Catalog catalog = OneTable(kKeys);
  BohmEngine engine(catalog, cfg);
  perfbench::SerialOracle oracle(catalog);
  LoadZeros(engine, oracle);
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(seed);
  for (int i = 0; i < kTxns; ++i) {
    ProcedurePtr p = NextTxn(rng);
    oracle.Execute(*p);
    ASSERT_TRUE(engine.Submit(std::move(p)).ok());
  }
  testutil::WaitForIdle(engine);
  ExpectMatchesOracle(engine, oracle, catalog);
  engine.Stop();
}

std::string BohmParamName(
    const ::testing::TestParamInfo<std::tuple<uint64_t, uint32_t, bool>>&
        param_info) {
  return "seed" + std::to_string(std::get<0>(param_info.param)) + "_depth" +
         std::to_string(std::get<1>(param_info.param)) +
         (std::get<2>(param_info.param) ? "_wide" : "_default");
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDepths, BohmSeedEquivalence,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u, 55u),
                       ::testing::Values(1u, 2u, 8u), ::testing::Values(true)),
    BohmParamName);

INSTANTIATE_TEST_SUITE_P(
    DefaultConfig, BohmSeedEquivalence,
    ::testing::Combine(::testing::Values(777u), ::testing::Values(1u, 2u, 8u),
                       ::testing::Values(false)),
    BohmParamName);

}  // namespace
}  // namespace bohm
