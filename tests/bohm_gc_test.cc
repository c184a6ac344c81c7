// Garbage collection (Condition 3, Section 3.3.2) behaviour tests.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

std::unique_ptr<BohmEngine> MakeEngine(uint64_t keys, BohmConfig cfg,
                                       uint64_t initial = 0) {
  auto engine = std::make_unique<BohmEngine>(OneTable(keys), cfg);
  for (Key k = 0; k < keys; ++k) {
    EXPECT_TRUE(engine->Load(0, k, &initial).ok());
  }
  EXPECT_TRUE(engine->Start().ok());
  return engine;
}

TEST(BohmGcTest, SupersededVersionsAreFreed) {
  BohmConfig cfg;
  cfg.gc_enabled = true;
  cfg.batch_size = 32;
  cfg.pipeline_depth = 4;
  auto engine = MakeEngine(2, cfg);
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  }
  testutil::WaitForIdle(*engine);
  // Values stay correct...
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, static_cast<uint64_t>(kN));
  // ...and a large fraction of the kN superseded versions was recycled.
  // (Some stragglers remain on retire lists because CC threads only drain
  // at batch start; with kN/32 batches the bulk must have been freed.)
  EXPECT_GT(engine->gc_freed_versions(), static_cast<uint64_t>(kN) / 2);
  engine->Stop();
}

TEST(BohmGcTest, DisabledGcFreesNothing) {
  BohmConfig cfg;
  cfg.gc_enabled = false;
  auto engine = MakeEngine(2, cfg);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<IncrementProcedure>(0, 0)).ok());
  }
  testutil::WaitForIdle(*engine);
  EXPECT_EQ(engine->gc_freed_versions(), 0u);
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 1000u);
  engine->Stop();
}

TEST(BohmGcTest, RecyclingDoesNotCorruptUnderMixedLoad) {
  // Tight pipeline + tiny batches maximize version recycling while
  // transfers and readers race: the invariant sum must hold for every
  // reader and the final state must be exact.
  BohmConfig cfg;
  cfg.gc_enabled = true;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  constexpr uint64_t kKeys = 4, kInitial = 500;
  auto engine = MakeEngine(kKeys, cfg, kInitial);
  std::deque<uint64_t> sums;  // never moves a slot a reader still writes
  Rng rng(77);
  for (int i = 0; i < 1200; ++i) {
    if (i % 5 == 0) {
      sums.push_back(0);
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<testutil::ReadPairProcedure>(
                          0, 0, 1, &sums.back()))
                      .ok());
    } else {
      ASSERT_TRUE(engine
                      ->Submit(std::make_unique<testutil::TransferProcedure>(
                          0, 0, 1, rng.Uniform(7)))
                      .ok());
    }
  }
  testutil::WaitForIdle(*engine);
  for (uint64_t sum : sums) EXPECT_EQ(sum, 2 * kInitial);
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &a).ok());
  ASSERT_TRUE(engine->ReadLatest(0, 1, &b).ok());
  EXPECT_EQ(a + b, 2 * kInitial);
  EXPECT_GT(engine->gc_freed_versions(), 0u);
  engine->Stop();
}

TEST(BohmGcTest, FreedVersionsBoundedByCreated) {
  BohmConfig cfg;
  cfg.gc_enabled = true;
  cfg.batch_size = 16;
  auto engine = MakeEngine(4, cfg);
  constexpr int kN = 800;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<IncrementProcedure>(0, i % 4)).ok());
  }
  testutil::WaitForIdle(*engine);
  // kN writes create kN versions; at most kN can ever be retired (the
  // newest version of each key is never freed).
  EXPECT_LE(engine->gc_freed_versions(), static_cast<uint64_t>(kN));
  engine->Stop();
}

/// Adds 1 to every 8-byte word of each declared record (RMW).
class WordsRmw final : public StoredProcedure {
 public:
  WordsRmw(std::vector<RecordId> recs, const std::vector<uint32_t>* sizes)
      : sizes_(sizes) {
    for (const RecordId& r : recs) set_.AddRmw(r.table, r.key);
  }
  void Run(TxnOps& ops) override {
    for (const RecordId& r : set_.writes()) {
      const uint32_t words = (*sizes_)[r.table] / 8;
      const auto* in = static_cast<const uint64_t*>(ops.Read(r.table, r.key));
      auto* out = static_cast<uint64_t*>(ops.Write(r.table, r.key));
      for (uint32_t i = 0; i < words; ++i) out[i] = in[i] + 1;
    }
  }

 private:
  const std::vector<uint32_t>* sizes_;
};

TEST(BohmGcTest, FreesIntoTheRetiredVersionsTable) {
  // Two tables whose versions differ in size. A version recycled into the
  // other table's free list is either too small for its new record (the
  // write overruns its neighbours in the arena) or wastes memory; the
  // byte-for-byte comparison with the serial oracle catches the overrun.
  const std::vector<uint32_t> sizes = {8, 512};
  Catalog catalog;
  for (TableId t = 0; t < 2; ++t) {
    TableSpec spec;
    spec.id = t;
    // Not "t" + to_string(t): GCC 12 -O3 false -Wrestrict.
    spec.name = std::string("t").append(std::to_string(t));
    spec.record_size = sizes[t];
    spec.capacity = 8;
    ASSERT_TRUE(catalog.AddTable(std::move(spec)).ok());
  }
  BohmConfig cfg;
  cfg.gc_enabled = true;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  BohmEngine engine(catalog, cfg);
  perfbench::SerialOracle oracle(catalog);
  auto load = testutil::LoadBoth(engine, oracle);
  constexpr Key kKeys = 8;
  const std::vector<uint8_t> zeros(512, 0);
  for (TableId t = 0; t < 2; ++t) {
    for (Key k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(load(t, k, zeros.data()).ok());
    }
  }
  ASSERT_TRUE(engine.Start().ok());

  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    std::vector<RecordId> recs;
    const uint64_t kind = rng.Uniform(3);  // table 0, table 1, or both
    if (kind != 1) recs.push_back({0, rng.Uniform(kKeys)});
    if (kind != 0) recs.push_back({1, rng.Uniform(kKeys)});
    auto txn = std::make_unique<WordsRmw>(std::move(recs), &sizes);
    oracle.Execute(*txn);
    ASSERT_TRUE(engine.Submit(std::move(txn)).ok());
  }
  testutil::WaitForIdle(engine);
  testutil::ExpectMatchesOracle(engine, oracle, catalog);
  EXPECT_GT(engine.gc_freed_versions(), 1000u);
  engine.Stop();
}

}  // namespace
}  // namespace bohm
