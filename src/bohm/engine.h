// BohmEngine: the paper's concurrency-control protocol, end to end.
//
// Pipeline (Section 3.1):
//
//   clients --Submit()--> [input queue]
//      --> sequencer thread: totally orders transactions; timestamp =
//          position in the log; accumulates batches (Sections 3.2.1, 3.2.4)
//      --> m concurrency-control threads: each walks every batch and
//          processes exactly the records of its own static hash
//          partition — inserts uninitialized version placeholders for
//          writes and annotates reads with version references (Sections
//          3.2.2, 3.2.3); each thread advances its own epoch watermark
//          per batch instead of parking at a per-batch barrier (Section
//          3.2.4), so CC threads stream into batch b+1 while slower ones
//          are still in b
//      --> n execution threads: start batch b once min(cc_watermark) >= b,
//          stripe transactions among themselves, evaluate transaction
//          logic filling the placeholders, recursively evaluating
//          producers of unready read dependencies (Section 3.3.1); publish
//          per-thread completion watermarks from which the GC / slot-reuse
//          low-watermark is folded (Section 3.3.2).
//
// Every hand-off between stages is a watermark: the sequencer publishes
// the last sealed batch id, CC and exec threads their per-thread
// progress, and each stage counts batch ids 0, 1, 2, ... itself, waiting
// (bounded spin, yielding under oversubscription) until its upstream
// watermark reaches the next one.
//
// Reads never block writes; writes may block reads (only on placeholder
// data not yet produced). No global timestamp counter, no lock manager, no
// per-read shared-memory writes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
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
#include "log/log_writer.h"
#include "storage/schema.h"

namespace bohm {

/// Durable-log configuration (docs/DURABILITY.md). Bohm's recovery story
/// is the input log itself: because execution is deterministic in the
/// sequenced order, persisting each sealed batch (seqno + encoded
/// transactions) is a complete redo log — no ARIES, no per-write logging.
struct DurabilityConfig {
  /// When on, execution of a batch waits until the batch is durable per
  /// the fsync policy, so a commit acknowledgement implies the transaction
  /// survives a crash ("no acked commit is ever lost").
  bool enabled = false;
  /// Directory for segment files (created if missing).
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kGroup;
  uint32_t group_size = 8;  // kGroup: records per fsync
  uint64_t segment_bytes = 64ull << 20;
  /// File-system indirection; nullptr means the real one. Tests inject
  /// FaultLogEnv here.
  LogEnv* env = nullptr;
};

/// What Recover() found and repaired (test/monitoring observable).
struct RecoveryStats {
  uint64_t batches = 0;        ///< durable batches replayed
  uint64_t txns = 0;           ///< transactions replayed
  uint64_t segments = 0;       ///< segment files scanned
  bool tail_truncated = false; ///< a torn/corrupt tail was dropped
  uint64_t truncated_bytes = 0;
  std::string tail_detail;
  uint64_t last_seqno = 0;     ///< highest durable seqno (0: empty log)
};

struct BohmConfig {
  /// m: concurrency-control threads (each owns one physical hash
  /// partition of every table, PartitionOf(key) == its id). At most 64:
  /// the sequencer's pre-processing (Section 3.2.2) marks each transaction
  /// with a 64-bit mask of the CC threads it has work for, and Start()
  /// rejects wider configs (InvalidArgument) rather than compute an
  /// undefined shift.
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
  /// before Start(); single-threaded.
  Status Load(TableId table, Key key, const void* payload);

  /// Spawns the sequencer, CC, and execution threads. With durability
  /// enabled, also opens the log and starts the log-writer thread; fails
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

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// True once the durable-log writer has hit an I/O error: logging has
  /// stopped, already-acknowledged commits remain durable, and Submit
  /// rejects new work (the engine is degraded, not wrong).
  bool log_degraded() const {
    return log_writer_ != nullptr && log_writer_->failed();
  }

  /// Drains all submitted transactions and joins every engine thread.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Hands a transaction to the sequencer. Blocks (yielding) when the
  /// input queue is full. The engine assumes ownership and destroys the
  /// procedure some time after it completes (when its batch slot is
  /// recycled) — do not retain pointers into it.
  ///
  /// Returns Rejected (never crashes the engine) when the transaction
  /// cannot be accepted: engine not running or shutting down, durable log
  /// degraded, a non-loggable procedure under durability, or a malformed
  /// footprint (unknown table, duplicate write-set keys). On rejection
  /// ownership stays rejected-side semantics: the procedure is destroyed
  /// (it was moved in) and nothing was enqueued.
  Status Submit(ProcedurePtr proc);

  /// Non-owning variant for procedures whose results the caller wants to
  /// read back (e.g. a read-only scan's aggregate): the caller keeps
  /// ownership and must keep the object alive until the transaction has
  /// completed (WaitForIdle() suffices).
  Status SubmitBorrowed(StoredProcedure* proc);

  /// Convenience for tests/examples: Submit + WaitForIdle.
  Status RunSync(ProcedurePtr proc);

  /// Blocks until every transaction submitted so far has been executed.
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
  uint64_t submitted() const {
    return client_.submitted.load(std::memory_order_acquire);
  }
  uint64_t gc_freed_versions() const;
  const BohmConfig& config() const { return cfg_; }

  /// Some table of the catalog is large (IsLargeTable): the CC and exec
  /// stages prefetch each admitted batch's footprint (test observable).
  bool prefetching() const { return prefetch_; }
  /// The version arena of CC thread `cc_id` (test observable).
  const Arena& version_arena(uint32_t cc_id) const {
    return cc_state_[cc_id]->alloc.arena();
  }

  /// Reads the committed value of a record as of "now" (after
  /// WaitForIdle). Test/example helper; not part of the transactional
  /// path. Returns NotFound when absent.
  Status ReadLatest(TableId table, Key key, void* out) const;

 private:
  friend class BohmOps;

  struct alignas(kCacheLineSize) CcState {
    CcState(size_t version_block_bytes, bool huge_pages)
        : alloc(version_block_bytes, huge_pages) {}
    VersionAllocator alloc;
    /// The transactions of the current batch this thread has work in
    /// (scratch for the prefetching lookahead).
    std::vector<BohmTxn*> mine;
    std::deque<std::pair<Version*, int64_t>> retired;  // (version, batch)
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
  /// Encodes + hands the sealed batch to the log writer (sequencer thread
  /// only; no-op while replaying).
  void LogSealedBatch(const Batch& batch, int64_t id);

  /// Admission checks for Enqueue.
  Status CheckSubmit(const StoredProcedure* proc) const;

  // --- concurrency-control stage (cc_worker.cc) ---
  void CcLoop(uint32_t cc_id);
  /// CC over this thread's transactions of batch `b`, with a staged
  /// prefetch lookahead over their index footprint (engines with a large
  /// table, IsLargeTable).
  void CcBatchPrefetched(uint32_t cc_id, const Batch& batch, int64_t b);
  template <bool kPrefetch>
  void CcProcessTxn(uint32_t cc_id, BohmTxn* txn, int64_t batch_id);

  // --- execution stage (exec_worker.cc) ---
  void ExecLoop(uint32_t exec_id);
  /// Runs this thread's stripe of `batch` until every transaction in it is
  /// complete; kPrefetch prefetches each next stripe transaction's
  /// annotated versions while the current one runs.
  template <bool kPrefetch>
  void ExecStripe(uint32_t exec_id, const Batch& batch);
  /// Prefetches the versions an admitted transaction will read and the
  /// placeholders it will write (for writing).
  void PrefetchFootprint(const BohmTxn& txn) const;
  bool TryExecute(uint32_t exec_id, BohmTxn* txn, uint32_t depth);
  bool EnsureReady(uint32_t exec_id, Version* v, uint32_t depth);
  bool FillAbortedWrites(uint32_t exec_id, BohmTxn* txn, uint32_t depth);

  // --- garbage collection (gc.cc) ---
  void DrainRetired(uint32_t cc_id);

  uint64_t CompletedCount() const;

  struct InputItem {
    StoredProcedure* proc = nullptr;
    bool owned = false;
    /// MonotonicNanos() at Submit(); becomes BohmTxn::submit_tick.
    uint64_t submit_tick = 0;
  };

  Catalog catalog_;
  BohmConfig cfg_;
  BohmDatabase db_;
  std::vector<uint32_t> record_sizes_;  // by table id
  /// Some table is large (IsLargeTable): CC and exec prefetch each
  /// admitted batch's footprint, and version arenas use huge pages. Fixed
  /// at construction from the catalog.
  bool prefetch_ = false;
  BatchRing ring_;
  MpmcQueue<InputItem> input_;
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

  /// Durable-log state (null when durability is off). Declaration order
  /// matters: the writer references the log, so it is declared after it
  /// (destroyed first).
  std::unique_ptr<BatchLog> log_;
  std::unique_ptr<LogWriter> log_writer_;
  StallSlot seq_log_stall_;  ///< sequencer blocked on the writer ring
  /// Per-exec-thread durable-ack wait (rule R6 gate).
  std::vector<std::unique_ptr<StallSlot>> exec_log_stall_;
  bool recovered_ = false;  // Recover() ran (gates Start's nonempty check)
  RecoveryStats recovery_stats_;

  std::vector<std::thread> threads_;

  // One writer per hot cache line (docs/CONCURRENCY.md, rule R9): the
  // mutable words written per transaction or per batch are grouped by
  // the thread that writes them, each group on lines of its own, so a
  // client's Submit never pulls the sequencer's line away from it.

  /// Written by client threads, once per accepted Submit.
  struct alignas(kCacheLineSize) ClientLine {
    std::atomic<uint64_t> submitted{0};
  };
  /// Sequencer-private: plain fields only the sequencer thread touches.
  struct alignas(kCacheLineSize) SequencerLine {
    uint64_t next_ts = 1;
    int64_t next_batch_id = 0;
    /// Scratch for batch payload encoding.
    std::vector<const StoredProcedure*> log_txn_scratch;
  };
  /// Published by the sequencer once per sealed batch (and once at exit).
  struct alignas(kCacheLineSize) SealLine {
    std::atomic<int64_t> last_sealed_batch{-1};
    std::atomic<bool> sequencer_done{false};
  };
  /// Lifecycle state: written a few times per engine lifetime, read on
  /// every Submit and per batch.
  struct alignas(kCacheLineSize) LifecycleLine {
    std::atomic<bool> started{false};
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopped{false};
    /// True while Recover() is pushing the old log back through the
    /// pipeline: suppresses re-logging and the durable-ack gate. The
    /// release store back to false publishes log_base (rule R6).
    std::atomic<bool> replaying{false};
    /// seqno of batch id b is log_base + b; seqno 0 is reserved. Written
    /// by Recover() before replaying returns to false; read by the
    /// sequencer and exec threads only when replaying is false.
    uint64_t log_base = 1;
  };
  static_assert(alignof(ClientLine) == kCacheLineSize);
  static_assert(alignof(SequencerLine) == kCacheLineSize);
  static_assert(alignof(SealLine) == kCacheLineSize);
  static_assert(alignof(LifecycleLine) == kCacheLineSize);

  ClientLine client_;
  /// Accepts `proc` (owned: destroyed when its batch slot is reused) and
  /// hands it to the sequencer; the one enqueue path behind Submit and
  /// SubmitBorrowed.
  Status Enqueue(StoredProcedure* proc, bool owned);
  SequencerLine seq_;
  SealLine sealed_;
  LifecycleLine life_;
};

}  // namespace bohm
