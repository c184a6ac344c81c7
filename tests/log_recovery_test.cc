// Crash-recovery proof suite for the durable sequencer log.
//
// The correctness claim under test (docs/DURABILITY.md): after any crash,
// Recover() rebuilds exactly the state produced by serially executing the
// durable committed prefix of the log — torn or corrupt tails are
// truncated and never replayed, and mid-log damage is refused rather than
// skipped. The reference is the serial oracle (perfbench/oracle.h): decode
// the intact log with ReadBatchLog and run its transactions one at a time
// in log order. If the engine's recovered multi-version state ever
// diverges from the oracle's, the pipeline's determinism (or the log's
// framing) is broken.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bohm/engine.h"
#include "log/batch_log.h"
#include "log/fault_env.h"
#include "log/log_reader.h"
#include "log/record.h"
#include "test_util.h"

namespace bohm {
namespace {

using testutil::OneTable;

constexpr uint64_t kKeys = 16;
constexpr uint64_t kTxns = 60;

/// Expects the recovered `engine` to match the serial oracle run over the
/// logged batches with seqno < `limit_seqno`, in log order.
void ExpectMatchesLog(const BohmEngine& engine,
                      const std::vector<ReplayedBatch>& batches,
                      const char* what, uint64_t limit_seqno = UINT64_MAX) {
  SCOPED_TRACE(what);
  const Catalog catalog = OneTable(kKeys);
  perfbench::SerialOracle oracle(catalog);
  const uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(oracle.Load(0, k, &zero).ok());
  for (const ReplayedBatch& b : batches) {
    if (b.seqno >= limit_seqno) break;
    for (const ProcedurePtr& txn : b.txns) oracle.Execute(*txn);
  }
  testutil::ExpectMatchesOracle(engine, oracle, catalog);
}

// ----------------------------------------------------------------------
// Harness

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("bohm_recovery_test_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static BohmConfig Config(const std::string& dir, uint32_t sync_every = 0,
                           LogEnv* env = nullptr) {
    BohmConfig cfg;
    cfg.cc_threads = 2;
    cfg.exec_threads = 2;
    cfg.batch_size = 8;  // kTxns txns span several batches
    cfg.durability.enabled = true;
    cfg.durability.dir = dir;
    cfg.durability.sync_every = sync_every;
    cfg.durability.env = env;
    return cfg;
  }

  static std::unique_ptr<BohmEngine> MakeEngine(const BohmConfig& cfg) {
    auto engine = std::make_unique<BohmEngine>(OneTable(kKeys), cfg);
    uint64_t zero = 0;
    for (Key k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(engine->Load(0, k, &zero).ok());
    }
    return engine;
  }

  /// The deterministic workload every test replays: a fixed mix of blind
  /// puts and read-modify-write increments across kKeys records.
  static ProcedurePtr WorkloadTxn(uint64_t i) {
    if (i % 3 == 0) {
      return std::make_unique<PutProcedure>(0, i % kKeys, 1000 + i);
    }
    return std::make_unique<IncrementProcedure>(0, (i * 7) % kKeys, i + 1);
  }

  static void SubmitWorkload(BohmEngine* engine, uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; ++i) {
      ASSERT_TRUE(engine->Submit(WorkloadTxn(i)).ok()) << "txn " << i;
    }
  }

  std::filesystem::path root_;
};

// ----------------------------------------------------------------------
// Clean paths

TEST_F(RecoveryTest, EmptyDirRecoversToEmpty) {
  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().records, 0u);
  EXPECT_EQ(engine->recovery_stats().last_seqno, 0u);
  // The recovered-empty engine is a fully working engine.
  SubmitWorkload(engine.get(), 0, 10);
  testutil::WaitForIdle(*engine);
  engine->Stop();
}

TEST_F(RecoveryTest, CleanShutdownRecoversAll) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }

  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_FALSE(scan.tail_truncated);
  EXPECT_EQ(scan.txns, kTxns);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().txns, kTxns);
  EXPECT_FALSE(engine->recovery_stats().tail_truncated);
  ExpectMatchesLog(*engine, batches, "clean recovery");
  engine->Stop();
}

TEST_F(RecoveryTest, StartOnNonEmptyDirRejected) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, 10);
    engine->Stop();
  }
  auto engine = MakeEngine(Config(Dir("log")));
  // Start() on a non-empty log would fork the seqno history; the engine
  // insists on Recover().
  Status st = engine->Start();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  ASSERT_TRUE(engine->Recover().ok());
  engine->Stop();
}

TEST_F(RecoveryTest, RecoveredEngineContinuesTheLog) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  // Second life: recover, then keep going — the new batches must extend
  // the persisted seqno sequence without a gap or overlap.
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Recover().ok());
    SubmitWorkload(engine.get(), kTxns, kTxns + 20);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  // Third life sees one continuous history of all kTxns + 20 txns.
  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_EQ(scan.txns, kTxns + 20);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().txns, kTxns + 20);
  ExpectMatchesLog(*engine, batches, "second recovery");
  engine->Stop();
}

TEST_F(RecoveryTest, AllReadOnlyBatchLogsAnEmptyRecord) {
  // One txn per batch: the lone read-only Get seals a batch with nothing
  // loggable. It still gets a record, or the second Put's seqno would
  // follow a gap that recovery refuses.
  BohmConfig cfg = Config(Dir("log"));
  cfg.batch_size = 1;
  {
    auto engine = MakeEngine(cfg);
    ASSERT_TRUE(engine->Start().ok());
    uint64_t out = 0;
    ASSERT_TRUE(engine->Submit(std::make_unique<PutProcedure>(0, 1, 11)).ok());
    ASSERT_TRUE(
        engine->Submit(std::make_unique<GetProcedure>(0, 1, &out)).ok());
    ASSERT_TRUE(engine->Submit(std::make_unique<PutProcedure>(0, 2, 22)).ok());
    engine->Stop();
  }
  auto engine = MakeEngine(cfg);
  Status st = engine->Recover();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(engine->recovery_stats().records, 3u);
  uint64_t v = 0;
  ASSERT_TRUE(engine->ReadLatest(0, 1, &v).ok());
  EXPECT_EQ(v, 11u);
  ASSERT_TRUE(engine->ReadLatest(0, 2, &v).ok());
  EXPECT_EQ(v, 22u);
  engine->Stop();
}

/// A blind put whose log encoding takes 5 ms, so the log thread falls
/// behind CC: only the durable-ack gate then holds execution back.
class SlowToLogPut final : public StoredProcedure {
 public:
  SlowToLogPut(Key key, uint64_t value) : put_(0, key, value) {
    set_.AddWrite(0, key);
  }
  void Run(TxnOps& ops) override { put_.Run(ops); }
  uint32_t codec_id() const override { return put_.codec_id(); }
  void EncodeArgs(std::string* out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    put_.EncodeArgs(out);
  }

 private:
  PutProcedure put_;
};

TEST_F(RecoveryTest, ExecutionWaitsForTheDurableRecord) {
  // Under sync_every = 1 a record is durable once appended and synced,
  // so when exec starts batch b (one txn per batch) at least b + 1
  // records must be appended and b + 1 data fsyncs done. Slow syncs keep
  // a watermark published before its fsync from going unseen.
  FaultLogEnv fault;
  fault.DelaySyncs(2000);
  BohmConfig cfg = Config(Dir("log"), 1, &fault);
  cfg.batch_size = 1;
  auto engine = MakeEngine(cfg);
  std::atomic<int> early{0};
  std::atomic<int> unsynced{0};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->exec_batch_start = [&](uint32_t, int64_t b) {
    const auto need = static_cast<uint64_t>(b) + 1;
    if (engine->Stats().log_records < need) ++early;
    if (fault.syncs() < need) ++unsynced;
  };
  engine->set_test_hooks(hooks);
  ASSERT_TRUE(engine->Start().ok());
  for (Key k = 0; k < 4; ++k) {
    ASSERT_TRUE(engine->Submit(std::make_unique<SlowToLogPut>(k, k)).ok());
  }
  testutil::WaitForIdle(*engine);
  engine->Stop();
  EXPECT_EQ(early.load(), 0) << "a batch executed before its record";
  EXPECT_EQ(unsynced.load(), 0) << "a batch executed before its fsync";
}

TEST_F(RecoveryTest, ReplayedBatchesSkipTheGateAfterReplay) {
  BohmConfig cfg = Config(Dir("log"));
  cfg.batch_size = 1;
  {
    auto engine = MakeEngine(cfg);
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, 2);
    engine->Stop();
  }
  // Exec thread 1 owns no txn of a one-txn batch, so replay finishes
  // without it. Held at batch 0 until Recover() returns, it reaches the
  // replayed batches after replay is over; this engine never logs them,
  // so waiting for their records would wedge it.
  auto engine = MakeEngine(cfg);
  std::atomic<bool> recovered{false};
  auto hooks = std::make_shared<BohmTestHooks>();
  hooks->exec_batch_start = [&](uint32_t exec_id, int64_t b) {
    while (exec_id == 1 && b == 0 && !recovered.load()) {
      std::this_thread::yield();
    }
  };
  engine->set_test_hooks(hooks);
  ASSERT_TRUE(engine->Recover().ok());
  recovered.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine->Watermark() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(engine->Watermark(), 1) << "exec waited for a replayed record";
  // Unwedges a failing run: the next record's seqno covers the replayed
  // batches' seqnos.
  SubmitWorkload(engine.get(), 2, 3);
  engine->Stop();
}

TEST_F(RecoveryTest, ShutdownWithInflightWorkLosesNothing) {
  // Satellite 3: Stop() without WaitForIdle must drain every accepted
  // submission through the sequencer, the log, and execution — a clean
  // shutdown never drops work it accepted.
  {
    auto engine = MakeEngine(Config(Dir("log"), 8));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    engine->Stop();  // no WaitForIdle: the pipeline is still full
  }
  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  EXPECT_EQ(scan.txns, kTxns);  // every accepted txn reached the log

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  ExpectMatchesLog(*engine, batches, "inflight shutdown");
  engine->Stop();
}

// ----------------------------------------------------------------------
// Crash matrix: every way a tail can die

struct TailDamage {
  const char* name;
  // Truncation point relative to the victim record's span (UINT64_MAX:
  // no truncation — this case flips a byte instead).
  uint64_t truncate_delta;
  uint64_t flip_delta;  // only when truncate_delta == UINT64_MAX
  bool expect_repair;   // recovery reports tail_truncated
};

TEST_F(RecoveryTest, CrashMatrixRecoversDurablePrefix) {
  // One intact run, then every damage mode is applied to a fresh copy of
  // the log and recovery must yield exactly the surviving prefix.
  {
    auto engine = MakeEngine(Config(Dir("intact")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  std::vector<ReplayedBatch> durable;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("intact"), LogEnv::Default(), &durable, &scan).ok());
  std::vector<RecordSpan> spans;
  ASSERT_TRUE(
      ScanRecordSpans(Dir("intact"), LogEnv::Default(), &spans).ok());
  ASSERT_GE(spans.size(), 4u) << "need several records for a useful matrix";

  const TailDamage kMatrix[] = {
      // A crash exactly at a record boundary: the shorter log is simply a
      // valid earlier state, nothing to repair.
      {"cut-at-boundary", 0, 0, false},
      // One byte of the next header made it to disk.
      {"torn-header-1b", 1, 0, true},
      // Header almost complete.
      {"torn-header-23b", kRecordHeaderSize - 1, 0, true},
      // Header complete, payload cut short.
      {"torn-payload", kRecordHeaderSize + 1, 0, true},
      // All but the last payload byte made it.
      {"almost-whole", UINT64_MAX - 1, 0, true},  // length - 1, see below
      // Bit rot in the last record's payload.
      {"flipped-payload", UINT64_MAX, kRecordHeaderSize + 2, true},
      // Bit rot in the last record's header.
      {"flipped-header", UINT64_MAX, 9, true},
  };

  int case_id = 0;
  for (const TailDamage& dmg : kMatrix) {
    SCOPED_TRACE(dmg.name);
    const std::string dir = Dir("case" + std::to_string(case_id++));
    std::filesystem::copy(Dir("intact"), dir,
                          std::filesystem::copy_options::recursive);

    // Truncation cases pick a victim in the middle of the tail region;
    // flips must target the last record (mid-log damage is a different
    // test). Paths inside the copy mirror the intact layout.
    const RecordSpan& victim = (dmg.truncate_delta == UINT64_MAX)
                                   ? spans.back()
                                   : spans[spans.size() - 2];
    const std::string victim_path =
        dir + victim.path.substr(Dir("intact").size());

    if (dmg.truncate_delta != UINT64_MAX) {
      uint64_t delta = dmg.truncate_delta;
      if (dmg.truncate_delta == UINT64_MAX - 1) delta = victim.length - 1;
      ASSERT_TRUE(LogEnv::Default()
                      ->TruncateFile(victim_path, victim.offset + delta)
                      .ok());
    } else {
      FaultLogEnv surgeon;
      ASSERT_TRUE(
          surgeon.FlipByte(victim_path, victim.offset + dmg.flip_delta, 0x20)
              .ok());
    }

    auto engine = MakeEngine(Config(dir));
    Status st = engine->Recover();
    ASSERT_TRUE(st.ok()) << dmg.name << ": " << st.ToString();
    EXPECT_EQ(engine->recovery_stats().tail_truncated, dmg.expect_repair);
    if (dmg.expect_repair) {
      EXPECT_GT(engine->recovery_stats().truncated_bytes, 0u);
    }
    EXPECT_EQ(engine->recovery_stats().last_seqno, victim.seqno - 1);
    ExpectMatchesLog(*engine, durable, dmg.name,
                     /*limit_seqno=*/victim.seqno);

    // The repaired log must itself recover cleanly (repair is idempotent
    // and leaves a valid log behind).
    engine->Stop();
    auto engine2 = MakeEngine(Config(dir));
    ASSERT_TRUE(engine2->Recover().ok()) << dmg.name << " second pass";
    engine2->Stop();
  }
}

TEST_F(RecoveryTest, MidLogCorruptionIsRefused) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  std::vector<RecordSpan> spans;
  ASSERT_TRUE(ScanRecordSpans(Dir("log"), LogEnv::Default(), &spans).ok());
  ASSERT_GE(spans.size(), 3u);

  // Damage the FIRST record: valid records beyond it prove this is not a
  // crash tail, so recovery must refuse rather than replay around a hole.
  FaultLogEnv surgeon;
  ASSERT_TRUE(surgeon
                  .FlipByte(spans[0].path,
                            spans[0].offset + kRecordHeaderSize + 1, 0x10)
                  .ok());

  auto engine = MakeEngine(Config(Dir("log")));
  Status st = engine->Recover();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

TEST_F(RecoveryTest, MissingLeadingSegmentIsRefused) {
  // A log whose earliest surviving segment does not start at seqno 1 is
  // a suffix of history, not history: replaying it would silently diverge
  // from the pre-crash state, so recovery must refuse.
  BohmConfig cfg = Config(Dir("log"));
  cfg.durability.segment_bytes = 256;  // force several segments
  {
    auto engine = MakeEngine(cfg);
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  std::vector<std::filesystem::path> segments;
  for (const auto& e : std::filesystem::directory_iterator(Dir("log"))) {
    uint64_t first;
    if (ParseSegmentFileName(e.path().filename().string(), &first)) {
      segments.push_back(e.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 2u) << "need rotation for this test";
  std::filesystem::remove(segments.front());

  auto engine = MakeEngine(Config(Dir("log")));
  Status st = engine->Recover();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

TEST_F(RecoveryTest, MisnamedSegmentIsRefused) {
  // A segment whose filename seqno disagrees with the running sequence
  // (here: the only segment renamed to claim it starts at 2) means the
  // directory and its contents no longer tell the same story.
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  const std::filesystem::path dir(Dir("log"));
  std::filesystem::rename(dir / SegmentFileName(1), dir / SegmentFileName(2));

  auto engine = MakeEngine(Config(Dir("log")));
  Status st = engine->Recover();
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

// ----------------------------------------------------------------------
// Durability of the metadata the data fsyncs don't cover

TEST_F(RecoveryTest, SegmentCreationSyncsTheDirectory) {
  FaultLogEnv fault;
  {
    auto engine = MakeEngine(Config(Dir("log"), 0, &fault));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, 10);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  // Open() syncs the log dir's entry in its parent; the first segment's
  // creation syncs the log directory itself — both before any record in
  // the segment could be reported durable.
  EXPECT_GE(fault.dir_syncs(), 2u);
}

TEST_F(RecoveryTest, SyncEverySetsTheDataFsyncCount) {
  // One segment (no roll), so every data fsync is the cadence's or the
  // final one at Stop().
  for (uint32_t sync_every : {0u, 1u}) {
    SCOPED_TRACE(sync_every);
    FaultLogEnv fault;
    const std::string dir = Dir("log" + std::to_string(sync_every));
    auto engine = MakeEngine(Config(dir, sync_every, &fault));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    // Every record is durable once its batch executed.
    const uint64_t records = engine->Stats().log_records;
    ASSERT_GE(records, 2u);
    EXPECT_EQ(fault.syncs(), sync_every == 0 ? 0 : records);
    engine->Stop();
    EXPECT_EQ(fault.syncs(), sync_every == 0 ? 1 : records + 1);
  }
}

TEST_F(RecoveryTest, TailRepairSyncsTheTruncation) {
  {
    auto engine = MakeEngine(Config(Dir("log")));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  std::vector<RecordSpan> spans;
  ASSERT_TRUE(ScanRecordSpans(Dir("log"), LogEnv::Default(), &spans).ok());
  ASSERT_GE(spans.size(), 2u);
  // Tear the last record's header, then recover through a counting env:
  // the repair must fsync the truncated file (and the directory) before
  // the engine starts appending new segments beyond it.
  ASSERT_TRUE(LogEnv::Default()
                  ->TruncateFile(spans.back().path, spans.back().offset + 1)
                  .ok());
  FaultLogEnv fault;
  auto engine = MakeEngine(Config(Dir("log"), 0, &fault));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_TRUE(engine->recovery_stats().tail_truncated);
  EXPECT_GE(fault.file_syncs(), 1u);
  EXPECT_GE(fault.dir_syncs(), 1u);
  engine->Stop();
}

// ----------------------------------------------------------------------
// Start() failure must not half-start the engine

TEST_F(RecoveryTest, StartRollsBackWhenLogOpenFails) {
  // The log directory's parent does not exist, so BatchLog::Open fails
  // after Start() has already claimed started_. The claim must be rolled
  // back: otherwise Submit() would accept transactions into a pipeline
  // with no threads, and callers would hang in WaitForIdle/Stop.
  auto engine = MakeEngine(Config(Dir("missing-parent") + "/nested/log"));
  Status st = engine->Start();
  ASSERT_FALSE(st.ok()) << st.ToString();
  EXPECT_TRUE(engine->Submit(WorkloadTxn(0)).IsRejected());
  engine->Stop();  // never started: must be a safe no-op, not a hang
}

// ----------------------------------------------------------------------
// In-process fault injection

TEST_F(RecoveryTest, CrashAtSyncLosesOnlyUnsyncedSuffix) {
  // A lying disk: sync #3 claims success but persists nothing from then
  // on. The run completes "normally"; recovery must surface exactly the
  // two records that genuinely hit the platter.
  FaultLogEnv fault;
  fault.CrashAtSync(3);
  {
    auto engine = MakeEngine(Config(Dir("log"), 1, &fault));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  EXPECT_TRUE(fault.crashed());

  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  // sync_every = 1 syncs once per record: exactly syncs 1 and 2 persisted.
  ASSERT_EQ(batches.size(), 2u);

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  EXPECT_EQ(engine->recovery_stats().records, 2u);
  ExpectMatchesLog(*engine, batches, "crash at sync");
  engine->Stop();
}

TEST_F(RecoveryTest, TornWriteCrashRecoversDurablePrefix) {
  // The process dies mid-write: some whole records plus a torn prefix of
  // one more are on disk. Recovery truncates the torn record and replays
  // the rest.
  FaultLogEnv fault;
  fault.CrashAfterBytes(700);  // lands mid-stream for this workload
  {
    auto engine = MakeEngine(Config(Dir("log"), 0, &fault));
    ASSERT_TRUE(engine->Start().ok());
    SubmitWorkload(engine.get(), 0, kTxns);
    testutil::WaitForIdle(*engine);
    engine->Stop();
  }
  EXPECT_TRUE(fault.crashed());

  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  const LogScanStats& rs = engine->recovery_stats();
  EXPECT_LT(rs.txns, kTxns);  // the tail genuinely died

  std::vector<ReplayedBatch> batches;
  LogScanStats scan;
  ASSERT_TRUE(
      ReadBatchLog(Dir("log"), LogEnv::Default(), &batches, &scan).ok());
  ExpectMatchesLog(*engine, batches, "torn write");
  engine->Stop();
}

TEST_F(RecoveryTest, DiskFullDegradesGracefully) {
  // Honest ENOSPC: the writer sees the error, stops logging, and the
  // engine sheds new work instead of wedging or crashing. Already-durable
  // batches stay recoverable.
  FaultLogEnv fault;
  fault.FailWritesAfterBytes(300);
  bool rejected = false;
  {
    auto engine = MakeEngine(Config(Dir("log"), 1, &fault));
    ASSERT_TRUE(engine->Start().ok());
    for (uint64_t i = 0; i < 20000 && !rejected; ++i) {
      Status st = engine->Submit(WorkloadTxn(i));
      if (st.IsRejected()) {
        rejected = true;
        // The rejection names the I/O error that degraded the engine.
        EXPECT_NE(st.message().find("injected: disk full"), std::string::npos)
            << st.ToString();
        break;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(rejected) << "writer failure never surfaced to Submit";
    EXPECT_TRUE(engine->log_degraded());
    engine->Stop();  // must not hang on the broken durable-ack gate
  }

  // Whatever made it to disk before the error is still a valid log.
  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Recover().ok());
  engine->Stop();
}

// ----------------------------------------------------------------------
// Loggability admission

TEST_F(RecoveryTest, NonLoggableWriterRejectedUnderDurability) {
  auto engine = MakeEngine(Config(Dir("log")));
  ASSERT_TRUE(engine->Start().ok());
  // A writer the log cannot reproduce would make replay diverge.
  Status st = engine->Submit(testutil::MakeMulWrite(0, 1, 2, 3));
  EXPECT_TRUE(st.IsRejected()) << st.ToString();

  // Read-only non-loggable procedures are harmless on replay (they
  // change nothing) and stay admitted.
  uint64_t out = 0;
  bool found = false;
  ASSERT_TRUE(
      engine->Submit(std::make_unique<GetProcedure>(0, 1, &out, &found)).ok());
  testutil::WaitForIdle(*engine);
  EXPECT_TRUE(found);
  engine->Stop();
}

TEST_F(RecoveryTest, NonLoggableWriterAllowedWithoutDurability) {
  BohmConfig cfg;  // durability off: loggability is not a constraint
  auto engine = std::make_unique<BohmEngine>(OneTable(kKeys), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(engine->Load(0, k, &zero).ok());
  ASSERT_TRUE(engine->Start().ok());
  ASSERT_TRUE(engine->Submit(testutil::MakeMulWrite(0, 1, 2, 3)).ok());
  testutil::WaitForIdle(*engine);
  engine->Stop();
}

}  // namespace
}  // namespace bohm
