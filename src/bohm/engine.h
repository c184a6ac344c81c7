// BohmEngine: the paper's concurrency-control protocol, end to end.
//
// Pipeline (Section 3.1):
//
//   clients --Submit()--> [input queue]
//      (Submit checks the footprint and builds the CC-interest mask on the
//      client thread: pre-processing off the sequencer, Section 3.2.2)
//      --> sequencer thread: totally orders transactions; timestamp =
//          position in the log; accumulates batches (Sections 3.2.1, 3.2.4)
//      --> m concurrency-control threads: each walks every batch and
//          processes exactly the records of its own static partition
//          (key k belongs to CC thread k % m, whose slice of each
//          table's fixed-size head array holds it; Section 4's array
//          index) — inserts uninitialized version placeholders for
//          writes and annotates reads with version references (Sections
//          3.2.2, 3.2.3); each thread advances its own epoch watermark
//          per batch instead of parking at a per-batch barrier (Section
//          3.2.4), so CC threads stream into batch b+1 while slower ones
//          are still in b
//      --> n execution threads: start batch b once min(cc_watermark) >= b,
//          stripe transactions among themselves, evaluate transaction
//          logic filling the placeholders, recursively evaluating
//          producers of unready read dependencies (Section 3.3.1); each
//          acknowledges its stripe's commits once the stripe is complete,
//          and publishes a per-thread completion watermark from which the
//          GC / slot-reuse low-watermark is folded (Section 3.3.2).
//   With durability on, one log thread also walks the sealed batches: it
//   reads each from its slot and appends it to the log (Section 2.3),
//   and execution admits batch b only once it is durable.
//
// Every hand-off between stages is a watermark: the sequencer publishes
// the last sealed batch id, CC and exec threads their per-thread
// progress, the log thread the durable seqno, and each stage counts
// batch ids 0, 1, 2, ... itself, waiting (bounded spin, yielding under
// oversubscription) until its upstream watermark reaches the next one.
//
// Reads never block writes; writes may block reads (only on placeholder
// data not yet produced). No global timestamp counter, no lock manager, no
// per-read shared-memory writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/macros.h"
#include "common/queue.h"
#include "common/spin.h"
#include "common/stats.h"
#include "common/status.h"
#include "bohm/batch.h"
#include "bohm/table.h"
#include "bohm/txn_state.h"
#include "bohm/version.h"
#include "log/batch_log.h"
#include "log/log_reader.h"
#include "storage/schema.h"

namespace bohm {

/// Durable-log configuration (docs/DURABILITY.md). Bohm's recovery story
/// is the input log itself: because execution is deterministic in the
/// sequenced order, persisting each sealed batch (seqno + encoded
/// transactions) is a complete redo log — no ARIES, no per-write logging.
struct DurabilityConfig {
  /// When on, execution of a batch waits until the batch is durable, so a
  /// commit acknowledgement implies the transaction survives a crash ("no
  /// acked commit is ever lost").
  bool enabled = false;
  /// Directory for segment files (created if missing).
  std::string dir;
  /// Records per fsync; the log also syncs whenever no sealed batch is
  /// waiting. 0: no fsync before Close() — a record is durable once
  /// handed to the kernel.
  uint32_t sync_every = 8;
  uint64_t segment_bytes = 64ull << 20;
  /// File-system indirection; nullptr means the real one. Tests inject
  /// FaultLogEnv here.
  LogEnv* env = nullptr;
};

struct BohmConfig {
  /// m: concurrency-control threads (each owns one physical partition of
  /// every table, PartitionOf(key) == its id). At most 64:
  /// Submit's pre-processing (Section 3.2.2) marks each transaction with a
  /// 64-bit mask of the CC threads it has work for, and Start() rejects
  /// wider configs (InvalidArgument) rather than compute an undefined
  /// shift.
  uint32_t cc_threads = 2;
  /// n: transaction-execution threads.
  uint32_t exec_threads = 2;
  /// Transactions per batch. Coordination cost is amortized over this many
  /// transactions (Section 3.2.4).
  uint32_t batch_size = 256;
  /// Batches in flight across the three stages (minimum 1; depth 1
  /// degenerates the stream to one batch at a time, which the streaming
  /// equivalence tests use as the serial reference point).
  uint32_t pipeline_depth = 4;
  /// Enable Condition-3 garbage collection of superseded versions
  /// (Section 3.3.2).
  bool gc_enabled = true;
  /// Pin engine threads to CPUs (auto-disabled when threads > CPUs).
  bool pin_threads = true;
  /// Capacity of the client->sequencer queue (rounded up to a power of 2).
  size_t input_queue_capacity = 8192;
  /// Bound on recursive read-dependency evaluation; deeper chains back out
  /// and are retried by the responsible thread (keeps stacks bounded under
  /// adversarial hot-key RMW chains).
  uint32_t max_dependency_depth = 64;
  /// Durable sequencer log + crash recovery (docs/DURABILITY.md).
  DurabilityConfig durability;
};

/// Test-only observation/freeze points inside the pipeline threads. Every
/// callback is invoked from the engine thread named by its first argument;
/// a callback that blocks freezes exactly that thread (the streaming tests
/// use this to pin a CC thread mid-batch and prove execution still honours
/// the watermark). Install before Start(); unset hooks cost one pointer
/// check per batch, never per transaction.
struct BohmTestHooks {
  /// CC thread `cc_id` is about to process its slice of `batch_id`.
  std::function<void(uint32_t cc_id, int64_t batch_id)> cc_batch_start;
  /// CC thread `cc_id` finished its slice of `batch_id` (its watermark is
  /// advanced immediately after this returns).
  std::function<void(uint32_t cc_id, int64_t batch_id)> cc_batch_end;
  /// Exec thread `exec_id` is about to stripe `batch_id` (the CC
  /// watermark fold has already admitted the batch).
  std::function<void(uint32_t exec_id, int64_t batch_id)> exec_batch_start;
  /// Exec thread `exec_id` completed its stripe of `batch_id`.
  std::function<void(uint32_t exec_id, int64_t batch_id)> exec_batch_end;
};

class BohmEngine {
 public:
  BohmEngine(const Catalog& catalog, BohmConfig cfg);
  ~BohmEngine();
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmEngine);

  /// Inserts an initial record (timestamp-0 version). Must be called
  /// before Start(); single-threaded. InvalidArgument for a key >= the
  /// table's capacity or one already loaded.
  Status Load(TableId table, Key key, const void* payload);

  /// Spawns the sequencer, CC, and execution threads. With durability
  /// enabled, also opens the log and starts the log thread; fails
  /// with FailedPrecondition if the log directory already holds segments
  /// and Recover() was not called first (silently continuing would fork
  /// the seqno history).
  Status Start();

  /// Crash recovery: scans the durable log (repairing a torn or
  /// checksum-failing tail by truncation), starts the engine, and replays
  /// every durable batch through the full pipeline in original sequenced
  /// order — determinism makes the result byte-equivalent to the
  /// pre-crash state. Call instead of Start(), after Load()ing the same
  /// initial records as the original run; the engine is running (and
  /// logging new batches) when this returns. Stats in recovery_stats().
  Status Recover();

  /// What Recover()'s scan found and repaired; `records` batches were
  /// replayed.
  const LogScanStats& recovery_stats() const { return recovery_stats_; }

  /// True once the durable log has hit an I/O error: logging has
  /// stopped, already-acknowledged commits remain durable, and Submit
  /// rejects new work (the engine is degraded, not wrong).
  bool log_degraded() const {
    return log_ != nullptr && log_->failed();
  }

  /// Drains all submitted transactions and joins every engine thread.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Hands a transaction to the sequencer: the one way into the engine.
  /// Blocks (yielding) when the input queue is full. The engine assumes
  /// ownership and destroys the procedure some time after it completes
  /// (when its batch slot is recycled) — do not retain pointers into it;
  /// a procedure that reports results writes them to caller-owned storage
  /// that stays put until the transaction completes (WaitForIdle()
  /// suffices). The pipeline reads the procedure's footprint in place, so
  /// it must not change after Submit.
  ///
  /// Returns Rejected (never crashes the engine) when the transaction
  /// cannot be accepted: engine not running or shutting down, durable log
  /// degraded, a non-loggable procedure under durability, or a malformed
  /// footprint (unknown table, a key >= its table's capacity, duplicate
  /// write-set keys). A rejected
  /// procedure is destroyed on return and nothing is enqueued.
  Status Submit(ProcedurePtr proc);

  /// Blocks until every transaction submitted so far has been executed
  /// and acknowledged (its execution thread's stripe is complete).
  void WaitForIdle();

  /// Aggregated execution counters plus per-stage stall attribution.
  StatsSnapshot Stats() const;

  /// The execution low-watermark: every batch with id <= Watermark() has
  /// been fully executed by every execution thread (drives GC and batch
  /// slot reuse).
  int64_t Watermark() const;

  /// The CC low-watermark: every CC thread has finished its partition
  /// slice of every batch with id <= CcWatermark(). Execution may only be
  /// inside batches the CC watermark has passed, so
  /// Watermark() <= CcWatermark() always holds.
  int64_t CcWatermark() const;

  /// Test hooks.
  const BohmDatabase& db() const { return db_; }
  /// Installs pipeline observation hooks. Must be called before Start().
  void set_test_hooks(std::shared_ptr<const BohmTestHooks> hooks) {
    hooks_ = std::move(hooks);
  }
  /// Highest batch id the sequencer has sealed so far (-1 before the
  /// first seal).
  int64_t last_sealed_batch() const {
    return sealed_.last_sealed_batch.load(std::memory_order_acquire);
  }
  /// Transactions accepted by Submit so far: the input queue's claimed
  /// cells.
  uint64_t submitted() const { return input_.claimed(); }
  /// Transactions acknowledged so far (committed or logically aborted).
  uint64_t completed() const;
  uint64_t gc_freed_versions() const;
  const BohmConfig& config() const { return cfg_; }

  /// The version arena of CC thread `cc_id` (test observable).
  const Arena& version_arena(uint32_t cc_id) const {
    return cc_state_[cc_id]->alloc.arena();
  }

  /// Reads the committed value of a record as of "now" (after
  /// WaitForIdle). Test/example helper; not part of the transactional
  /// path. Returns NotFound when absent or key >= the table's capacity.
  Status ReadLatest(TableId table, Key key, void* out) const;

 private:
  friend class BohmOps;

  struct alignas(kCacheLineSize) CcState {
    CcState(size_t version_block_bytes, bool huge_pages)
        : alloc(version_block_bytes, huge_pages) {}
    VersionAllocator alloc;
    /// The transactions of the current batch this thread has work in
    /// (scratch for the lookahead of CcBatchPrefetched).
    std::vector<BohmTxn*> mine;
    /// Versions superseded in this thread's partition, by batch.
    RetireQueue retired;
    RelaxedCounter freed;
  };
  /// Single-writer wall-clock stall accumulator, one per pipeline thread
  /// (padded so stall accounting never shares a line across threads).
  struct alignas(kCacheLineSize) StallSlot {
    RelaxedCounter ns;
  };
  /// Spins until `ready()` holds and charges the wait to `slot`; returns
  /// without reading the clock when `ready()` already holds.
  template <typename Ready>
  static void AwaitCharged(StallSlot& slot, Ready&& ready) {
    AwaitCharged(slot, ready, [] { return true; });
  }
  /// As above for a wait on two hand-offs in series: the spin budget
  /// starts afresh once `upstream()` is first seen to hold, so a long wait
  /// on the first hand-off (which backs off to yield) does not leave the
  /// thread reacting to the second at yield pace.
  template <typename Ready, typename Upstream>
  static void AwaitCharged(StallSlot& slot, Ready&& ready,
                           Upstream&& upstream) {
    if (ready()) return;
    const uint64_t start = MonotonicNanos();
    SpinWait wait;
    bool upstream_seen = upstream();
    while (!ready()) {
      if (!upstream_seen && upstream()) {
        upstream_seen = true;
        wait.Reset();
      }
      wait.Pause();
    }
    slot.ns.Inc(MonotonicNanos() - start);
  }

  // --- sequencer stage (sequencer.cc) ---
  void SequencerLoop();
  void SealBatch(Batch* batch, int64_t id);

  /// Opens the log and spawns the sequencer, CC and exec threads, with
  /// execution gating batches from `log_first_batch` on: the part of
  /// Start() that Recover() shares.
  Status StartPipeline(int64_t log_first_batch);

  // --- durable-log stage (log_stage.cc) ---
  /// The log thread: appends every batch from `first` on (0 after
  /// Start(); after Recover(), the first batch sealed after replay, since
  /// replayed batches are durable already and never logged again).
  void LogLoop(int64_t first);

  /// Admission checks for Submit. On success `*cc_interest` is the mask
  /// of CC threads that own a record of the footprint.
  Status CheckSubmit(const StoredProcedure* proc,
                     uint64_t* cc_interest) const;

  // --- concurrency-control stage (cc_worker.cc) ---
  void CcLoop(uint32_t cc_id);
  /// CC over this thread's transactions of `batch`, prefetching the head
  /// slots of the transaction two ahead: the stage's one loop, for every
  /// catalog.
  void CcBatchPrefetched(uint32_t cc_id, const Batch& batch);
  void CcProcessTxn(uint32_t cc_id, BohmTxn* txn);

  // --- execution stage (exec_worker.cc) ---
  void ExecLoop(uint32_t exec_id);
  /// Runs this thread's stripe of `batch` until every transaction in it is
  /// complete, then acknowledges the stripe (AckStripe). While one stripe
  /// transaction runs, the next one's annotated versions and placeholders
  /// are prefetched (PrefetchFootprint), for every catalog.
  void ExecStripe(uint32_t exec_id, const Batch& batch);
  /// The commit-ack point: with one clock reading, records every committed
  /// stripe transaction's submit→ack latency and adds the stripe's commits
  /// and logic aborts to this thread's stats slice.
  void AckStripe(uint32_t exec_id, const Batch& batch);
  /// Prefetches the versions an admitted transaction will read and the
  /// placeholders it will write (for writing).
  void PrefetchFootprint(const BohmTxn& txn) const;
  bool TryExecute(uint32_t exec_id, BohmTxn* txn, uint32_t depth);
  bool EnsureReady(uint32_t exec_id, Version* v, uint32_t depth);
  bool FillAbortedWrites(uint32_t exec_id, BohmTxn* txn, uint32_t depth);

  // --- garbage collection (gc.cc) ---
  void DrainRetired(uint32_t cc_id);

  /// A submitted transaction, pre-processed on the client thread so the
  /// sequencer need not read the procedure at all.
  struct InputItem {
    /// Owned by the engine from Submit on; the sequencer hands it to the
    /// batch slot, which destroys it when the slot is reused.
    StoredProcedure* proc = nullptr;
    /// MonotonicNanos() at Submit(); becomes BohmTxn::submit_tick.
    uint64_t submit_tick = 0;
    /// Becomes BohmTxn::cc_interest (CheckSubmit).
    uint64_t cc_interest = 0;
    /// Footprint size: the length of the transaction's version array.
    uint32_t records = 0;
  };

  Catalog catalog_;
  BohmConfig cfg_;
  BohmDatabase db_;
  std::vector<uint32_t> record_sizes_;  // by table id
  BatchRing ring_;
  MpscQueue<InputItem> input_;  // consumer: the sequencer thread
  std::vector<std::unique_ptr<CcState>> cc_state_;
  /// Per-thread CC progress; execution admits batch b when Min() >= b.
  WatermarkSet cc_watermark_;
  /// Per-thread execution progress; Min() is Watermark() (GC/slot reuse).
  WatermarkSet exec_watermark_;
  StatsRegistry stats_;  // one slice per execution thread
  StallSlot seq_stall_;
  /// Sequencer waiting for input with nothing to seal (starved, not busy).
  StallSlot seq_idle_;
  std::vector<std::unique_ptr<StallSlot>> cc_stall_;
  std::vector<std::unique_ptr<StallSlot>> exec_stall_;
  std::shared_ptr<const BohmTestHooks> hooks_;

  /// The durable log (null when durability is off), driven by the log
  /// thread.
  std::unique_ptr<BatchLog> log_;
  /// Per-exec-thread durable-ack wait (rule R6 gate).
  std::vector<std::unique_ptr<StallSlot>> exec_log_stall_;
  LogScanStats recovery_stats_;

  std::vector<std::thread> threads_;

  // One writer per hot cache line (docs/CONCURRENCY.md, rule R9): the
  // mutable words written per transaction or per batch are grouped by
  // the thread that writes them, each group on a line pair of its own, so
  // a client's Submit never pulls the sequencer's line away from it (the
  // clients' one per-Submit write is the input queue's claim).

  /// Sequencer-private: plain fields only the sequencer thread touches.
  struct alignas(kLinePairSize) SequencerLine {
    int64_t next_batch_id = 0;
  };
  /// Published by the sequencer once per sealed batch (and once at exit).
  struct alignas(kLinePairSize) SealLine {
    std::atomic<int64_t> last_sealed_batch{-1};
    std::atomic<bool> sequencer_done{false};
  };
  /// Lifecycle state: written a few times per engine lifetime, read on
  /// every Submit and per batch.
  struct alignas(kLinePairSize) LifecycleLine {
    std::atomic<bool> started{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopped{false};
    /// The first batch the log thread writes and execution gates on
    /// durability: 0 after Start(), the first batch sealed after replay
    /// after Recover(), INT64_MAX while Recover() replays (replayed
    /// batches are durable already and never logged again). Its release
    /// store publishes log_base (rule R6).
    std::atomic<int64_t> log_first_batch{0};
    /// seqno of batch id b is log_base + b; seqno 0 is reserved. Written
    /// by Recover() before its release store of log_first_batch.
    uint64_t log_base = 1;
  };
  static_assert(alignof(SequencerLine) == kLinePairSize);
  static_assert(alignof(SealLine) == kLinePairSize);
  static_assert(alignof(LifecycleLine) == kLinePairSize);

  SequencerLine seq_;
  SealLine sealed_;
  LifecycleLine life_;
};

}  // namespace bohm
