// Delete (tombstone) semantics in the Bohm engine: the paper's version
// machinery supports inserts and deletes through begin/end timestamps and
// tombstones (the correctness argument in Section 3.3.3 explicitly covers
// them).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bohm/engine.h"
#include "harness/engines.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;
using testutil::RunSync;
using testutil::WriteU64;

/// Deletes one record.
class DeleteProcedure final : public StoredProcedure {
 public:
  DeleteProcedure(TableId table, Key key, bool* supported = nullptr)
      : table_(table), key_(key), supported_(supported) {
    set_.AddWrite(table, key);
  }
  void Run(TxnOps& ops) override {
    bool ok = ops.Delete(table_, key_);
    if (supported_ != nullptr) *supported_ = ok;
  }

 private:
  TableId table_;
  Key key_;
  bool* supported_;
};

/// Deletes then aborts: the record must survive.
class AbortedDelete final : public StoredProcedure {
 public:
  AbortedDelete(TableId table, Key key) : table_(table), key_(key) {
    set_.AddWrite(table, key);
  }
  void Run(TxnOps& ops) override {
    (void)ops.Delete(table_, key_);
    ops.Abort();
  }

 private:
  TableId table_;
  Key key_;
};

/// Loads keys 0..keys-1 of a table declared with `capacity` slots (keys
/// by default); the keys between stay absent.
std::unique_ptr<BohmEngine> MakeEngine(uint64_t keys, uint64_t initial,
                                       uint64_t capacity = 0) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  cfg.batch_size = 8;
  auto engine = std::make_unique<BohmEngine>(
      OneTable(capacity == 0 ? keys : capacity), cfg);
  for (Key k = 0; k < keys; ++k) {
    EXPECT_TRUE(engine->Load(0, k, &initial).ok());
  }
  EXPECT_TRUE(engine->Start().ok());
  return engine;
}

TEST(BohmDeleteTest, DeletedRecordBecomesAbsent) {
  auto engine = MakeEngine(4, 77);
  bool supported = false;
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<DeleteProcedure>(0, 1, &supported))
          .ok());
  EXPECT_TRUE(supported);
  uint64_t out = 0;
  bool found = true;
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<GetProcedure>(0, 1, &out, &found))
          .ok());
  EXPECT_FALSE(found);
  // Other records untouched.
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 77u);
  engine->Stop();
}

TEST(BohmDeleteTest, ReadBeforeDeleteStillSeesValue) {
  // reader(ts) < delete(ts'): the reader must see the pre-delete value
  // even though the delete is processed in the same pipeline.
  auto engine = MakeEngine(4, 55);
  uint64_t out = 0;
  bool found = false;
  ASSERT_TRUE(
      engine->Submit(std::make_unique<GetProcedure>(0, 0, &out, &found)).ok());
  ASSERT_TRUE(engine->Submit(std::make_unique<DeleteProcedure>(0, 0)).ok());
  engine->WaitForIdle();
  EXPECT_TRUE(found);
  EXPECT_EQ(out, 55u);
  // And after the delete, it is gone.
  uint64_t out2 = 0;
  bool found2 = true;
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<GetProcedure>(0, 0, &out2, &found2))
          .ok());
  EXPECT_FALSE(found2);
  engine->Stop();
}

TEST(BohmDeleteTest, ReinsertAfterDelete) {
  auto engine = MakeEngine(4, 10);
  ASSERT_TRUE(engine->Submit(std::make_unique<DeleteProcedure>(0, 3)).ok());
  ASSERT_TRUE(engine->Submit(std::make_unique<PutProcedure>(0, 3, 99)).ok());
  engine->WaitForIdle();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 3, &out).ok());
  EXPECT_EQ(out, 99u);
  engine->Stop();
}

TEST(BohmDeleteTest, IncrementAfterDeleteStartsFromZero) {
  // IncrementProcedure treats an absent record as 0.
  auto engine = MakeEngine(4, 500);
  ASSERT_TRUE(engine->Submit(std::make_unique<DeleteProcedure>(0, 2)).ok());
  ASSERT_TRUE(
      engine->Submit(std::make_unique<IncrementProcedure>(0, 2, 7)).ok());
  engine->WaitForIdle();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 2, &out).ok());
  EXPECT_EQ(out, 7u);
  engine->Stop();
}

TEST(BohmDeleteTest, AbortedDeleteKeepsRecord) {
  auto engine = MakeEngine(4, 33);
  ASSERT_TRUE(RunSync(*engine, std::make_unique<AbortedDelete>(0, 1)).ok());
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 1, &out).ok());
  EXPECT_EQ(out, 33u);
  engine->Stop();
}

TEST(BohmDeleteTest, DeleteAbsentRecordIsNoop) {
  auto engine = MakeEngine(2, 1, /*capacity=*/1024);
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<DeleteProcedure>(0, 999)).ok());
  uint64_t out = 0;
  bool found = true;
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<GetProcedure>(0, 999, &out, &found))
          .ok());
  EXPECT_FALSE(found);
  engine->Stop();
}

TEST(BohmDeleteTest, DeleteChurnWithGc) {
  // Repeated delete/insert cycles on one key stress tombstone versions
  // flowing through Condition-3 GC.
  auto engine = MakeEngine(2, 0);
  for (int round = 0; round < 300; ++round) {
    ASSERT_TRUE(
        engine->Submit(std::make_unique<PutProcedure>(0, 0, round)).ok());
    ASSERT_TRUE(
        engine->Submit(std::make_unique<DeleteProcedure>(0, 0)).ok());
  }
  ASSERT_TRUE(engine->Submit(std::make_unique<PutProcedure>(0, 0, 4242)).ok());
  engine->WaitForIdle();
  uint64_t out = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 0, &out).ok());
  EXPECT_EQ(out, 4242u);
  EXPECT_GT(engine->gc_freed_versions(), 100u);
  engine->Stop();
}

/// Declares `writes` blind writes on keys 0..writes-1, deletes the keys in
/// `deleted`, writes `value` to the others, then aborts when `abort` is set.
class WideDelete final : public StoredProcedure {
 public:
  WideDelete(TableId table, uint32_t writes, std::vector<Key> deleted,
             uint64_t value, bool abort)
      : table_(table), deleted_(std::move(deleted)), value_(value),
        abort_(abort) {
    set_.Reserve(writes);
    for (Key k = 0; k < writes; ++k) set_.AddWrite(table, k);
  }
  void Run(TxnOps& ops) override {
    for (const RecordId& rec : set_.writes()) {
      if (std::find(deleted_.begin(), deleted_.end(), rec.key) !=
          deleted_.end()) {
        (void)ops.Delete(table_, rec.key);
      } else {
        WriteU64(ops, table_, rec.key, value_);
      }
    }
    if (abort_) ops.Abort();
  }

 private:
  TableId table_;
  std::vector<Key> deleted_;
  uint64_t value_;
  bool abort_;
};

TEST(BohmDeleteTest, TombstonesBeyondSixtyFourWrites) {
  // 70 writes: a tombstone representation sized for 64 writes would lose
  // (or alias) the deletes of the 66th and 70th records.
  constexpr uint32_t kWrites = 70;
  const std::vector<Key> deleted = {65, 69};
  auto engine = MakeEngine(kWrites, 5);
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<WideDelete>(0, kWrites, deleted, 77,
                                                   /*abort=*/false))
          .ok());
  for (Key k = 0; k < kWrites; ++k) {
    uint64_t out = 0;
    const Status st = engine->ReadLatest(0, k, &out);
    if (k == 65 || k == 69) {
      EXPECT_TRUE(st.IsNotFound()) << "key " << k << " was deleted";
    } else {
      ASSERT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(out, 77u) << "key " << k;
    }
  }
  EXPECT_EQ(engine->Stats().commits, 1u);
  engine->Stop();
}

TEST(BohmDeleteTest, AbortAfterWideDeleteKeepsOldValues) {
  constexpr uint32_t kWrites = 70;
  auto engine = MakeEngine(kWrites, 5);
  ASSERT_TRUE(
      RunSync(*engine, std::make_unique<WideDelete>(0, kWrites,
                                                   std::vector<Key>{65, 69},
                                                   77, /*abort=*/true))
          .ok());
  for (Key k = 0; k < kWrites; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(engine->ReadLatest(0, k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, 5u) << "key " << k;
  }
  const StatsSnapshot s = engine->Stats();
  EXPECT_EQ(s.logic_aborts, 1u);
  EXPECT_EQ(s.commits, 0u);
  engine->Stop();
}

TEST(BohmDeleteTest, ExecutorEnginesReportUnsupported) {
  // The single-version baselines decline deletes (fixed pre-loaded
  // storage, as in the paper's workloads).
  for (auto kind : {EngineKind::k2PL, EngineKind::kOCC, EngineKind::kSI,
                    EngineKind::kHekaton}) {
    auto engine = MakeExecutorEngine(kind, OneTable(2), 1);
    uint64_t v = 1;
    ASSERT_TRUE(engine->Load(0, 0, &v).ok());
    bool supported = true;
    DeleteProcedure proc(0, 0, &supported);
    ASSERT_TRUE(engine->Execute(proc, 0).ok());
    EXPECT_FALSE(supported) << EngineKindName(kind);
  }
}

}  // namespace
}  // namespace bohm
