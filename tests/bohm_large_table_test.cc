// The large-table path: a catalog whose declared version footprint
// crosses kLargeFootprintBytes puts its index and version arenas on
// huge-page blocks, and the CC and execution stages prefetch each
// admitted batch's footprint (src/bohm/cc_worker.cc, exec_worker.cc).
// Prefetching must never change a result, so every pipeline shape the
// small-table suites cover — CC threads, adaptive repartitioning, GC —
// is checked here against a serial replay on a table past the gate.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

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
  EXPECT_TRUE(engine.prefetching());
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
  BohmEngine engine(SmallBankCatalog(bank), cfg);
  EXPECT_FALSE(engine.prefetching());
  for (uint32_t i = 0; i < cfg.cc_threads; ++i) {
    const Arena& arena = engine.version_arena(i);
    EXPECT_FALSE(arena.huge_pages());
    EXPECT_EQ(arena.block_bytes(), Arena::kDefaultBlockBytes);
  }
}

// (cc_threads, adaptive, gc)
class LargeTableEquivalence
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool, bool>> {};

TEST_P(LargeTableEquivalence, MatchesSerialReplay) {
  const auto [cc_threads, adaptive, gc] = GetParam();
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
  if (adaptive) {
    // Rotate every partition's owner between every pair of batches, so
    // the CC lookahead runs under a different map in each batch.
    cfg.adaptive.enabled = true;
    cfg.adaptive.partitions = 8;
    cfg.adaptive.interval_batches = 1;
    cfg.adaptive.force_rotate = true;
  }
  BohmEngine engine(YcsbCatalog(ycsb), cfg);
  ASSERT_TRUE(engine.prefetching());
  ASSERT_TRUE(YcsbLoad(ycsb, [&](TableId t, Key k, const void* p) {
                return engine.Load(t, k, p);
              }).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Half the transactions are pure RMWs; the other half RMW some keys and
  // only read the rest, whose observed sum must equal the serial replay's.
  std::vector<uint64_t> golden(ycsb.record_count, 0);
  std::vector<std::unique_ptr<YcsbMixedProcedure>> mixed;
  std::vector<uint64_t> expected_sums;
  Rng rng(cc_threads * 100 + (adaptive ? 10 : 0) + (gc ? 1 : 0));
  ScrambledZipf zipf(ycsb.record_count, ycsb.theta);
  for (int i = 0; i < kTxns; ++i) {
    std::vector<Key> keys;
    while (keys.size() < kKeysPerTxn) {
      const Key k = zipf.Next(rng);
      bool dup = false;
      for (Key seen : keys) dup = dup || seen == k;
      if (!dup) keys.push_back(k);
    }
    if (rng.Uniform(2) == 0) {
      for (Key k : keys) ++golden[k];
      ASSERT_TRUE(engine
                      .Submit(std::make_unique<YcsbRmwProcedure>(
                          keys, ycsb.record_size))
                      .ok());
    } else {
      uint64_t sum = 0;
      for (uint32_t j = kRmwPerMixed; j < kKeysPerTxn; ++j) sum += golden[keys[j]];
      for (uint32_t j = 0; j < kRmwPerMixed; ++j) ++golden[keys[j]];
      expected_sums.push_back(sum);
      mixed.push_back(std::make_unique<YcsbMixedProcedure>(
          keys, kRmwPerMixed, ycsb.record_size));
      ASSERT_TRUE(engine.SubmitBorrowed(mixed.back().get()).ok());
    }
  }
  engine.WaitForIdle();

  std::vector<char> rec(ycsb.record_size);
  for (Key k = 0; k < ycsb.record_count; ++k) {
    ASSERT_TRUE(engine.ReadLatest(kYcsbTableId, k, rec.data()).ok());
    uint64_t counter = 0;
    std::memcpy(&counter, rec.data(), sizeof(counter));
    ASSERT_EQ(counter, golden[k]) << "key " << k;
  }
  for (size_t i = 0; i < mixed.size(); ++i) {
    ASSERT_EQ(mixed[i]->observed_sum(), expected_sums[i]) << "mixed txn " << i;
  }
  EXPECT_EQ(engine.Stats().commits, static_cast<uint64_t>(kTxns));
  if (adaptive && cc_threads > 1) {
    EXPECT_GT(engine.cc_migrations(), 0u);
  }
  engine.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LargeTableEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& shape) {
      return "cc" + std::to_string(std::get<0>(shape.param)) +
             (std::get<1>(shape.param) ? "_adaptive" : "_static") +
             (std::get<2>(shape.param) ? "_gc" : "_nogc");
    });

}  // namespace
}  // namespace bohm
