// The large-table path: a catalog whose declared version footprint
// crosses kLargeFootprintBytes puts its index and version arenas on
// huge-page blocks; smaller catalogs keep heap blocks. Huge-page memory
// must never change a result, so every pipeline shape the small-table
// suites cover — CC threads, GC — is checked here against the serial
// oracle on a table past the gate.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
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

/// 10,000 x 1000-byte records: ~10 MB of versions, past the gate.
YcsbConfig LargeYcsb() {
  YcsbConfig ycsb;
  ycsb.record_count = 10'000;
  ycsb.record_size = 1000;
  ycsb.theta = 0.9;
  return ycsb;
}

TEST(LargeTableGateTest, DeclaredFootprintSelectsTheLargePath) {
  const Catalog large = YcsbCatalog(LargeYcsb());
  ASSERT_TRUE(IsLargeTable(*large.Find(kYcsbTableId)));
  SmallBankConfig bank;
  bank.customers = 50;
  const Catalog smallbank = SmallBankCatalog(bank);
  for (const TableSpec& t : smallbank.tables()) {
    EXPECT_FALSE(IsLargeTable(t)) << t.name;
  }
  YcsbConfig small = LargeYcsb();
  small.record_count = 512;
  const Catalog small_ycsb = YcsbCatalog(small);
  EXPECT_FALSE(IsLargeTable(*small_ycsb.Find(kYcsbTableId)));
}

TEST(ArenaTest, LargeCatalogUsesHugeVersionBlocks) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  BohmEngine engine(YcsbCatalog(LargeYcsb()), cfg);
  EXPECT_TRUE(engine.db().table(kYcsbTableId)->large());
  for (uint32_t i = 0; i < cfg.cc_threads; ++i) {
    const Arena& arena = engine.version_arena(i);
    EXPECT_TRUE(arena.huge_pages());
    EXPECT_EQ(arena.block_bytes() % kHugePageBytes, 0u);
  }
}

TEST(ArenaTest, SmallCatalogKeepsSmallBlocks) {
  SmallBankConfig bank;
  bank.customers = 50;
  BohmConfig cfg;
  cfg.cc_threads = 2;
  const Catalog catalog = SmallBankCatalog(bank);
  BohmEngine engine(catalog, cfg);
  for (const TableSpec& t : catalog.tables()) {
    EXPECT_FALSE(engine.db().table(t.id)->large()) << t.name;
  }
  for (uint32_t i = 0; i < cfg.cc_threads; ++i) {
    const Arena& arena = engine.version_arena(i);
    EXPECT_FALSE(arena.huge_pages());
    EXPECT_EQ(arena.block_bytes(), Arena::kDefaultBlockBytes);
  }
}

// (cc_threads, gc)
class LargeTableEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(LargeTableEquivalence, MatchesSerialReplay) {
  const auto [cc_threads, gc] = GetParam();
  const YcsbConfig ycsb = LargeYcsb();
  constexpr int kTxns = 1500;
  constexpr uint32_t kKeysPerTxn = 6;
  constexpr uint32_t kRmwPerMixed = 3;

  BohmConfig cfg;
  cfg.cc_threads = cc_threads;
  cfg.exec_threads = 2;
  cfg.batch_size = 32;
  cfg.pipeline_depth = 4;
  cfg.gc_enabled = gc;
  const Catalog catalog = YcsbCatalog(ycsb);
  BohmEngine engine(catalog, cfg);
  ASSERT_TRUE(engine.db().table(kYcsbTableId)->large());
  perfbench::SerialOracle oracle(catalog);
  ASSERT_TRUE(YcsbLoad(ycsb, testutil::LoadBoth(engine, oracle)).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Half the transactions are pure RMWs; the other half RMW some keys and
  // only read the rest, whose observed sum must equal the oracle run's.
  std::vector<uint64_t> oracle_sums;
  std::deque<uint64_t> sums;  // never moves a slot a transaction still writes
  Rng rng(cc_threads * 100 + (gc ? 1 : 0));
  ScrambledZipf zipf(ycsb.record_count, ycsb.theta);
  for (int i = 0; i < kTxns; ++i) {
    std::vector<Key> keys;
    while (keys.size() < kKeysPerTxn) {
      const Key k = zipf.Next(rng);
      bool dup = false;
      for (Key seen : keys) dup = dup || seen == k;
      if (!dup) keys.push_back(k);
    }
    ProcedurePtr txn;
    if (rng.Uniform(2) == 0) {
      txn = std::make_unique<YcsbRmwProcedure>(keys, ycsb.record_size);
      oracle.Execute(*txn);
    } else {
      sums.push_back(0);
      txn = std::make_unique<YcsbMixedProcedure>(
          keys, kRmwPerMixed, ycsb.record_size, &sums.back());
      oracle.Execute(*txn);
      oracle_sums.push_back(sums.back());
    }
    ASSERT_TRUE(engine.Submit(std::move(txn)).ok());
  }
  testutil::WaitForIdle(engine);

  testutil::ExpectMatchesOracle(engine, oracle, catalog);
  for (size_t i = 0; i < sums.size(); ++i) {
    ASSERT_EQ(sums[i], oracle_sums[i]) << "mixed txn " << i;
  }
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LargeTableEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool()),
    [](const auto& shape) {
      return "cc" + std::to_string(std::get<0>(shape.param)) +
             (std::get<1>(shape.param) ? "_gc" : "_nogc");
    });

}  // namespace
}  // namespace bohm
