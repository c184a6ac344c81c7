// The transaction-execution stage (Section 3.3.1).
//
// Execution threads receive batches whose concurrency control is already
// complete: every write has a placeholder version and every read is
// annotated with the exact version to observe. Transactions are
// striped across execution threads (thread i is *responsible* for
// transactions i, i+n, ...), but any thread may execute any transaction by
// winning the Unprocessed -> Executing claim — which is how unsatisfied
// read dependencies are resolved: the blocked thread recursively evaluates
// the producing transaction instead of waiting for it. Whichever thread
// executes a transaction, the thread responsible for it acknowledges it:
// once its whole stripe of a batch is complete, it reads the clock once
// and counts the stripe's commits and logic aborts (AckStripe).

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>

#include "common/spin.h"
#include "bohm/engine.h"

namespace bohm {

namespace {

/// Index of (table, key) in `recs` (linear scan — OLTP footprints are a
/// handful of elements), or recs.size() when undeclared.
size_t IndexOf(std::span<const RecordId> recs, TableId table, Key key) {
  size_t i = 0;
  while (i < recs.size() && !(recs[i].table == table && recs[i].key == key)) {
    ++i;
  }
  return i;
}

}  // namespace

/// Bohm's TxnOps: reads return resolved version data (guaranteed ready by
/// the dependency-resolution pass); writes return placeholder buffers.
/// Records are looked up in the procedure's own footprint, and the version
/// at the same position of the transaction's version array is used.
/// Operations are counted here and added to the stats slice once per
/// Run() (Flush).
class BohmOps final : public TxnOps {
 public:
  explicit BohmOps(BohmTxn* txn)
      : reads_(txn->proc->rwset().reads()),
        writes_(txn->proc->rwset().writes()),
        read_versions_(txn->versions()),
        write_versions_(txn->versions() + reads_.size()) {}

  const void* Read(TableId table, Key key) override {
    const size_t i = IndexOf(reads_, table, key);
    assert(i < reads_.size() && "access to undeclared read-set element");
    if (i == reads_.size()) return nullptr;
    ++n_reads_;
    Version* v = read_versions_[i];  // resolved before Run() was entered
    if (v == nullptr || v->tombstone()) return nullptr;
    return v->data();
  }

  void* Write(TableId table, Key key) override {
    Version* v = WriteVersion(table, key);
    assert(v != nullptr && "access to undeclared write-set element");
    return v == nullptr ? nullptr : v->data();
  }

  bool Delete(TableId table, Key key) override {
    Version* v = WriteVersion(table, key);
    assert(v != nullptr && "delete of undeclared write-set element");
    if (v == nullptr) return false;
    // Marks the placeholder, which is published as a tombstone version
    // after Run(). relaxed: this thread holds the Executing claim, so it
    // is the placeholder's only writer, and no reader looks at the bit
    // before the release store that sets kVersionReady.
    v->flags.store(v->flags.load(std::memory_order_relaxed) |
                       kVersionTombstone,
                   std::memory_order_relaxed);
    return true;
  }

  void Abort() override { aborted_ = true; }
  bool aborted() const override { return aborted_; }

  /// Adds this Run()'s operation counts to `stats`.
  void Flush(ThreadStats& stats) const {
    if (n_reads_ != 0) stats.reads.Inc(n_reads_);
    if (n_writes_ != 0) stats.writes.Inc(n_writes_);
  }

 private:
  Version* WriteVersion(TableId table, Key key) {
    const size_t i = IndexOf(writes_, table, key);
    if (i == writes_.size()) return nullptr;
    ++n_writes_;
    return write_versions_[i];
  }

  std::span<const RecordId> reads_;
  std::span<const RecordId> writes_;
  Version* const* read_versions_;
  Version* const* write_versions_;
  uint64_t n_reads_ = 0;
  uint64_t n_writes_ = 0;
  bool aborted_ = false;
};

void BohmEngine::ExecLoop(uint32_t exec_id) {
  StallSlot& stall = *exec_stall_[exec_id];
  const BohmTestHooks* hooks = hooks_.get();
  for (int64_t b = 0;; ++b) {
    // Admission: execution may enter batch b only once every CC thread
    // has finished its slice of b — min(cc_watermark) >= b. The acquire
    // fold pairs with each CC thread's release watermark store, which
    // follows that thread's acquire of the sealed watermark, so the
    // sequencer's slot writes and all placeholders and annotations of
    // batch b are visible here (rule R5). CC threads finish every sealed
    // batch before they exit, so the fold reaches b unless the sequencer
    // is done and never sealed it. The seal of b is the upstream
    // hand-off: once it is seen, the spin budget restarts, so exec reacts
    // to CC finishing b at pause pace however long the seal took.
    AwaitCharged(
        stall,
        [&] {
          return cc_watermark_.Min() >= b ||
                 (sealed_.sequencer_done.load(std::memory_order_acquire) &&
                  last_sealed_batch() < b);
        },
        [&] { return last_sealed_batch() >= b; });
    if (cc_watermark_.Min() < b) return;

    // Durable-ack gate (docs/CONCURRENCY.md rule R6): a batch may execute
    // — and therefore acknowledge commits — only once its log record is
    // durable, so "acknowledged" always implies "survives a crash". Off
    // for replayed batches (durable by definition, and never logged
    // again, even when this thread reaches one after replay ended) and
    // broken by a log failure: the engine then degrades to non-durable
    // execution of in-flight work while Submit rejects anything new,
    // rather than wedging shutdown on a watermark that will never move.
    if (log_ != nullptr &&
        b >= life_.log_first_batch.load(std::memory_order_acquire)) {
      const uint64_t need = life_.log_base + static_cast<uint64_t>(b);
      AwaitCharged(*exec_log_stall_[exec_id], [&] {
        return log_->durable_seqno() >= need || log_->failed();
      });
    }

    Batch* batch = ring_.Slot(b);
    if (hooks != nullptr && hooks->exec_batch_start) {
      hooks->exec_batch_start(exec_id, b);
    }

    ExecStripe(exec_id, *batch);
    if (hooks != nullptr && hooks->exec_batch_end) {
      hooks->exec_batch_end(exec_id, b);
    }
    exec_watermark_.Advance(exec_id, b);
  }
}

// Stripe: this thread is responsible for transactions exec_id,
// exec_id + n, ... . Other threads may execute them (and this thread may
// execute theirs, through dependency recursion), but this thread cannot
// advance to the next batch until all of its stripe is Complete.
//
// CC has annotated every read of the admitted batch with the exact
// version to observe and given every write its placeholder, so the next
// stripe transaction's whole footprint is known while the current one
// runs. Prefetching it overlaps its misses with the current transaction's
// work instead of taking them one by one inside Run(). Only this admitted
// batch's annotations are read (rule R8).
void BohmEngine::ExecStripe(uint32_t exec_id, const Batch& batch) {
  const size_t n = batch.txns.size();
  const size_t stride = cfg_.exec_threads;
  bool all_done = false;
  SpinWait wait;
  while (!all_done) {
    all_done = true;
    for (size_t idx = exec_id; idx < n; idx += stride) {
      BohmTxn* txn = batch.txns[idx];
      if (!txn->IsComplete()) {
        if (idx + stride < n) {
          const BohmTxn& next = *batch.txns[idx + stride];
          if (!next.IsComplete()) PrefetchFootprint(next);
        }
        TryExecute(exec_id, txn, 0);
        if (!txn->IsComplete()) all_done = false;
      }
    }
    if (!all_done) wait.Pause();
  }
  AckStripe(exec_id, batch);
}

// Every stripe transaction is Complete, and this thread acquired each
// Complete (ExecStripe's IsComplete loads), whichever thread executed it,
// so logic_aborted — written before that thread's release of Complete —
// is final here. Each transaction is counted exactly once, by the owner of
// its stripe. Samples go in before the counters, and the counters' release
// stores publish the stripe to Stats() and WaitForIdle(), so at quiescent
// points latency_us.count() == commits.
void BohmEngine::AckStripe(uint32_t exec_id, const Batch& batch) {
  const size_t n = batch.txns.size();
  const size_t stride = cfg_.exec_threads;
  if (static_cast<size_t>(exec_id) >= n) return;
  ThreadStats& stats = stats_.Slice(exec_id);
  const uint64_t now = MonotonicNanos();
  uint64_t commits = 0;
  uint64_t aborts = 0;
  for (size_t idx = exec_id; idx < n; idx += stride) {
    const BohmTxn& txn = *batch.txns[idx];
    if (txn.logic_aborted) {
      ++aborts;
      continue;
    }
    // Rounded up to a whole microsecond, so a committed transaction never
    // contributes a zero sample.
    const uint64_t lat_ns = now - txn.submit_tick;
    stats.latency_us.Record(lat_ns / 1000 + (lat_ns % 1000 != 0 ? 1 : 0));
    ++commits;
  }
  if (commits != 0) stats.commits.Inc(commits);
  if (aborts != 0) stats.logic_aborts.Inc(aborts);
}

void BohmEngine::PrefetchFootprint(const BohmTxn& txn) const {
  // Interleaved in the order a procedure typically touches them: the
  // version an RMW reads, then the placeholder it writes.
  const ReadWriteSet& set = txn.proc->rwset();
  const std::span<const RecordId> reads = set.reads();
  const std::span<const RecordId> writes = set.writes();
  Version* const* read_versions = txn.versions();
  Version* const* write_versions = read_versions + reads.size();
  const size_t n = std::max(reads.size(), writes.size());
  for (size_t i = 0; i < n; ++i) {
    if (i < reads.size() && read_versions[i] != nullptr) {
      PrefetchReadRange(read_versions[i],
                        sizeof(Version) + record_sizes_[reads[i].table]);
    }
    if (i < writes.size()) {
      PrefetchWriteRange(write_versions[i],
                         sizeof(Version) + record_sizes_[writes[i].table]);
    }
  }
}

bool BohmEngine::EnsureReady(uint32_t exec_id, Version* v, uint32_t depth) {
  if (v->ready()) return true;
  if (depth >= cfg_.max_dependency_depth) return false;
  BohmTxn* producer = v->producer;
  if (producer != nullptr) TryExecute(exec_id, producer, depth);
  // The producer may also have been completed concurrently by another
  // thread while our claim attempt failed.
  return v->ready();
}

bool BohmEngine::FillAbortedWrites(uint32_t exec_id, BohmTxn* txn,
                                   uint32_t depth) {
  // An aborted transaction's placeholder must carry the preceding
  // version's value (Section 3.3.1: "the data written to its version of x
  // is equal to that produced by T1" — the abort is a read dependency on
  // every preceding version). Pass 1 resolves those dependencies; pass 2
  // copies and publishes.
  const std::span<const RecordId> writes = txn->proc->rwset().writes();
  Version* const* write_versions =
      txn->versions() + txn->proc->rwset().reads().size();
  for (size_t i = 0; i < writes.size(); ++i) {
    Version* prev = write_versions[i]->prev;
    if (prev != nullptr && !EnsureReady(exec_id, prev, depth + 1)) {
      return false;
    }
  }
  for (size_t i = 0; i < writes.size(); ++i) {
    Version* v = write_versions[i];
    Version* prev = v->prev;
    // The whole flags word is stored, so a tombstone mark the aborted
    // logic made on the placeholder is dropped.
    if (prev == nullptr || prev->tombstone()) {
      v->flags.store(kVersionReady | kVersionTombstone,
                     std::memory_order_release);
    } else {
      std::memcpy(v->data(), prev->data(), record_sizes_[writes[i].table]);
      v->flags.store(kVersionReady, std::memory_order_release);
    }
  }
  return true;
}

bool BohmEngine::TryExecute(uint32_t exec_id, BohmTxn* txn, uint32_t depth) {
  uint32_t expected = static_cast<uint32_t>(ExecState::kUnprocessed);
  if (!txn->state.compare_exchange_strong(
          expected, static_cast<uint32_t>(ExecState::kExecuting),
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    // Already Executing on another thread (caller backs off) or Complete.
    return expected == static_cast<uint32_t>(ExecState::kComplete);
  }

  // Resolve every read dependency before evaluating any logic: all reads
  // must observe ready versions. If a producer cannot be evaluated right
  // now (claimed by another thread, or the recursion bound is hit), put
  // the transaction back to Unprocessed; a responsible thread will retry
  // (Section 3.3.1).
  const ReadWriteSet& set = txn->proc->rwset();
  const size_t n_reads = set.reads().size();
  Version* const* versions = txn->versions();
  for (size_t i = 0; i < n_reads; ++i) {
    Version* v = versions[i];
    if (v != nullptr && !EnsureReady(exec_id, v, depth + 1)) {
      txn->state.store(static_cast<uint32_t>(ExecState::kUnprocessed),
                       std::memory_order_release);
      return false;
    }
  }

  BohmOps ops(txn);
  txn->proc->Run(ops);
  ops.Flush(stats_.Slice(exec_id));

  if (ops.aborted()) {
    if (!FillAbortedWrites(exec_id, txn, depth)) {
      // A preceding version was not producible right now; back out. The
      // re-run is safe: procedures are deterministic in their reads, and
      // the annotated read versions are fixed.
      txn->state.store(static_cast<uint32_t>(ExecState::kUnprocessed),
                       std::memory_order_release);
      return false;
    }
    // Read by the stripe owner after it acquires Complete (AckStripe).
    txn->logic_aborted = true;
  } else {
    // Publish every placeholder, keeping a tombstone mark Delete() made.
    const size_t n_writes = set.writes().size();
    for (size_t i = 0; i < n_writes; ++i) {
      Version* v = versions[n_reads + i];
      // relaxed: this thread is the placeholder's only writer (Delete).
      const uint32_t tomb =
          v->flags.load(std::memory_order_relaxed) & kVersionTombstone;
      v->flags.store(kVersionReady | tomb, std::memory_order_release);
    }
  }
  // The commit (or logic abort) is acknowledged later, when the stripe
  // owner finds its whole stripe complete (AckStripe).
  txn->state.store(static_cast<uint32_t>(ExecState::kComplete),
                   std::memory_order_release);
  return true;
}

}  // namespace bohm
