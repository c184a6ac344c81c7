// The capacity contract of the four executor engines (2PL, OCC, SI,
// Hekaton): every table is a fixed-size array, so keys are
// 0..capacity-1. Load refuses a key past the capacity and a duplicate,
// ReadLatest finds neither a never-loaded key nor one past the capacity,
// and Execute refuses a footprint that names a key past the capacity or an
// unknown table before the transaction runs: no counter moves and no
// record changes. (Bohm's own contract tests are in bohm_table_test and
// bohm_engine_test.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "harness/engines.h"
#include "test_util.h"

namespace bohm {
namespace {

constexpr uint64_t kCapacity = 16;
/// Keys 0..kLoaded-1 are loaded; kLoaded..kCapacity-1 never are.
constexpr uint64_t kLoaded = 8;
constexpr uint64_t kInitial = 100;

/// Adds one to every record it declares, and notes that it ran.
class BumpProcedure final : public StoredProcedure {
 public:
  explicit BumpProcedure(ReadWriteSet set) { set_ = std::move(set); }
  void Run(TxnOps& ops) override {
    ran_ = true;
    for (const RecordId& rec : set_.reads()) {
      (void)testutil::ReadU64(ops, rec.table, rec.key);
    }
    for (const RecordId& rec : set_.writes()) {
      const uint64_t v = testutil::ReadU64(ops, rec.table, rec.key);
      testutil::WriteU64(ops, rec.table, rec.key, v + 1);
    }
  }
  bool ran() const { return ran_; }

 private:
  bool ran_ = false;
};

class ExecutorCapacityTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    engine_ = MakeExecutorEngine(GetParam(), testutil::OneTable(kCapacity),
                                 /*threads=*/1);
    for (Key k = 0; k < kLoaded; ++k) {
      ASSERT_TRUE(engine_->Load(0, k, &kInitial).ok()) << "key " << k;
    }
  }

  /// Executes a footprint that must be refused, and checks that nothing
  /// happened: the procedure did not run, no counter moved, and every
  /// loaded record still holds its initial value.
  void ExpectRefused(const ReadWriteSet& set) {
    BumpProcedure proc(set);
    const Status s = testutil::ExecuteWithDeadline(*engine_, proc);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_FALSE(proc.ran());
    const StatsSnapshot st = engine_->Stats();
    EXPECT_EQ(st.commits, 0u);
    EXPECT_EQ(st.logic_aborts, 0u);
    EXPECT_EQ(st.cc_aborts, 0u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.reads, 0u);
    EXPECT_EQ(st.writes, 0u);
    for (Key k = 0; k < kLoaded; ++k) {
      uint64_t v = 0;
      ASSERT_TRUE(engine_->ReadLatest(0, k, &v).ok()) << "key " << k;
      EXPECT_EQ(v, kInitial) << "key " << k;
    }
  }

  std::unique_ptr<ExecutorEngine> engine_;
};

TEST_P(ExecutorCapacityTest, LoadPastCapacityRefused) {
  EXPECT_TRUE(engine_->Load(0, kCapacity, &kInitial).IsInvalidArgument());
  EXPECT_TRUE(engine_->Load(0, 1000, &kInitial).IsInvalidArgument());
}

TEST_P(ExecutorCapacityTest, DuplicateLoadRefused) {
  EXPECT_TRUE(engine_->Load(0, 0, &kInitial).IsInvalidArgument());
}

TEST_P(ExecutorCapacityTest, ReadLatestNotFoundForAbsentKeys) {
  uint64_t v = 0;
  EXPECT_TRUE(engine_->ReadLatest(0, kLoaded, &v).IsNotFound());
  EXPECT_TRUE(engine_->ReadLatest(0, kCapacity, &v).IsNotFound());
  EXPECT_TRUE(engine_->ReadLatest(0, 1000, &v).IsNotFound());
}

TEST_P(ExecutorCapacityTest, WriteSetPastCapacityRefused) {
  ReadWriteSet set;
  set.AddRmw(0, 1);
  set.AddWrite(0, kCapacity);
  ExpectRefused(set);
}

TEST_P(ExecutorCapacityTest, WriteSetUnknownTableRefused) {
  ReadWriteSet set;
  set.AddRmw(0, 1);
  set.AddWrite(7, 0);
  ExpectRefused(set);
}

TEST_P(ExecutorCapacityTest, ReadSetPastCapacityRefused) {
  ReadWriteSet set;
  set.AddRead(0, 1000);
  set.AddRmw(0, 1);
  ExpectRefused(set);
}

TEST_P(ExecutorCapacityTest, ReadSetUnknownTableRefused) {
  ReadWriteSet set;
  set.AddRead(7, 0);
  set.AddRmw(0, 1);
  ExpectRefused(set);
}

TEST_P(ExecutorCapacityTest, InCapacityFootprintStillRuns) {
  // The check refuses only what lies outside the array: a never-loaded
  // key below the capacity is a valid footprint element that reads as
  // absent.
  ReadWriteSet set;
  set.AddRead(0, kLoaded);
  set.AddRmw(0, 1);
  BumpProcedure proc(set);
  ASSERT_TRUE(testutil::ExecuteWithDeadline(*engine_, proc).ok());
  EXPECT_TRUE(proc.ran());
  uint64_t v = 0;
  ASSERT_TRUE(engine_->ReadLatest(0, 1, &v).ok());
  EXPECT_EQ(v, kInitial + 1);
  EXPECT_EQ(engine_->Stats().commits, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ExecutorCapacityTest,
    ::testing::Values(EngineKind::k2PL, EngineKind::kOCC, EngineKind::kSI,
                      EngineKind::kHekaton),
    [](const auto& param_info) {
      return param_info.param == EngineKind::k2PL
                 ? std::string("TwoPL")
                 : std::string(EngineKindName(param_info.param));
    });

}  // namespace
}  // namespace bohm
