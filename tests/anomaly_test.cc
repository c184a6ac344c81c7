// Isolation-anomaly tests, directly mirroring Section 2's discussion:
// write skew (two transactions with overlapping read sets and disjoint
// write sets drawn from the shared read set) must be PERMITTED by Snapshot
// Isolation and PREVENTED by every serializable engine (Bohm, Hekaton,
// OCC, 2PL).
//
// Setup (Figure 1's shape): records A = B = 1.
//   T1: B := A * 10      T2: A := B * 100
// Serial outcomes: (A,B) = (1000, 10) or (100, 1000).
// The non-serializable snapshot outcome: (100, 10).
#include <gtest/gtest.h>

#include <thread>

#include "bohm/engine.h"
#include "harness/engines.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;
using testutil::Rendezvous;
using testutil::RendezvousMulWrite;

struct Outcome {
  uint64_t a;
  uint64_t b;
  bool overlapped;
};

/// Runs the write-skew pair with a mid-transaction rendezvous on an
/// executor engine; returns the final state.
Outcome RunWriteSkew(ExecutorEngine& engine) {
  Rendezvous rv(2);
  RendezvousMulWrite t1(0, /*src=*/0, /*dst=*/1, 10, &rv);
  RendezvousMulWrite t2(0, /*src=*/1, /*dst=*/0, 100, &rv);
  std::thread th1([&] { ASSERT_TRUE(engine.Execute(t1, 0).ok()); });
  std::thread th2([&] { ASSERT_TRUE(engine.Execute(t2, 1).ok()); });
  th1.join();
  th2.join();
  Outcome out{};
  uint64_t a = 0, b = 0;
  // All executor engines expose ReadLatest via concrete type; use a probe
  // transaction instead to stay interface-generic.
  bool found = false;
  GetProcedure ga(0, 0, &a, &found);
  GetProcedure gb(0, 1, &b, &found);
  EXPECT_TRUE(engine.Execute(ga, 0).ok());
  EXPECT_TRUE(engine.Execute(gb, 0).ok());
  out.a = a;
  out.b = b;
  out.overlapped = rv.Overlapped();
  return out;
}

std::unique_ptr<ExecutorEngine> MakeLoaded(EngineKind kind) {
  auto engine = MakeExecutorEngine(kind, OneTable(2), 2);
  uint64_t one = 1;
  EXPECT_TRUE(engine->Load(0, 0, &one).ok());
  EXPECT_TRUE(engine->Load(0, 1, &one).ok());
  return engine;
}

bool IsSerialOutcome(const Outcome& o) {
  return (o.a == 1000 && o.b == 10) || (o.a == 100 && o.b == 1000);
}

TEST(AnomalyTest, SnapshotIsolationPermitsWriteSkew) {
  auto engine = MakeLoaded(EngineKind::kSI);
  Outcome o = RunWriteSkew(*engine);
  ASSERT_TRUE(o.overlapped) << "transactions failed to overlap";
  // Both read the initial snapshot and committed (disjoint write sets →
  // no ww conflict): the classic non-serializable result.
  EXPECT_EQ(o.a, 100u);
  EXPECT_EQ(o.b, 10u);
  EXPECT_FALSE(IsSerialOutcome(o));
}

TEST(AnomalyTest, HekatonPreventsWriteSkew) {
  auto engine = MakeLoaded(EngineKind::kHekaton);
  Outcome o = RunWriteSkew(*engine);
  ASSERT_TRUE(o.overlapped);
  EXPECT_TRUE(IsSerialOutcome(o)) << "a=" << o.a << " b=" << o.b;
  // Read validation must have aborted at least one attempt.
  EXPECT_GE(engine->Stats().cc_aborts, 1u);
}

TEST(AnomalyTest, SiloPreventsWriteSkew) {
  auto engine = MakeLoaded(EngineKind::kOCC);
  Outcome o = RunWriteSkew(*engine);
  ASSERT_TRUE(o.overlapped);
  EXPECT_TRUE(IsSerialOutcome(o)) << "a=" << o.a << " b=" << o.b;
}

TEST(AnomalyTest, TwoPLPreventsWriteSkew) {
  // 2PL cannot even overlap the transactions (the shared read locks
  // conflict with the writes), so the rendezvous times out — that IS the
  // blocking behaviour the paper contrasts with multiversioning.
  auto engine = MakeLoaded(EngineKind::k2PL);
  Outcome o = RunWriteSkew(*engine);
  EXPECT_TRUE(IsSerialOutcome(o)) << "a=" << o.a << " b=" << o.b;
}

TEST(AnomalyTest, BohmPreventsWriteSkew) {
  BohmConfig cfg;
  cfg.cc_threads = 2;
  cfg.exec_threads = 2;
  BohmEngine engine(OneTable(2), cfg);
  uint64_t one = 1;
  ASSERT_TRUE(engine.Load(0, 0, &one).ok());
  ASSERT_TRUE(engine.Load(0, 1, &one).ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.Submit(testutil::MakeMulWrite(0, 0, 1, 10)).ok());
  ASSERT_TRUE(engine.Submit(testutil::MakeMulWrite(0, 1, 0, 100)).ok());
  engine.WaitForIdle();
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(engine.ReadLatest(0, 0, &a).ok());
  ASSERT_TRUE(engine.ReadLatest(0, 1, &b).ok());
  // Timestamp order is the serial order: T1 then T2.
  EXPECT_EQ(b, 10u);
  EXPECT_EQ(a, 1000u);
  // And with zero concurrency-control aborts — Bohm is pessimistic.
  EXPECT_EQ(engine.Stats().cc_aborts, 0u);
  engine.Stop();
}

TEST(AnomalyTest, SnapshotIsolationReadOnlySnapshotIsConsistent) {
  // SI's guarantee that *is* kept: reads come from one snapshot. A reader
  // overlapping a transfer sees either the before or the after state,
  // never a mix.
  auto engine = MakeLoaded(EngineKind::kSI);
  // Drive many transfer+read rounds; the pair sum must stay 2.
  for (int i = 0; i < 100; ++i) {
    testutil::TransferProcedure xfer(0, i % 2, (i + 1) % 2, 1);
    ASSERT_TRUE(engine->Execute(xfer, 0).ok());
    uint64_t sum = 0;
    testutil::ReadPairProcedure reader(0, 0, 1, &sum);
    ASSERT_TRUE(engine->Execute(reader, 1).ok());
    EXPECT_EQ(sum, 2u);
  }
}

}  // namespace
}  // namespace bohm
