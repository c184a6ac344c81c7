// The transaction-execution stage (Section 3.3.1).
//
// Execution threads receive batches whose concurrency control is already
// complete: every write has a placeholder version and every read is
// annotated with the exact version to observe. Transactions are
// striped across execution threads (thread i is *responsible* for
// transactions i, i+n, ...), but any thread may execute any transaction by
// winning the Unprocessed -> Executing claim — which is how unsatisfied
// read dependencies are resolved: the blocked thread recursively evaluates
// the producing transaction instead of waiting for it.

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/spin.h"
#include "bohm/engine.h"

namespace bohm {

/// Bohm's TxnOps: reads return resolved version data (guaranteed ready by
/// the dependency-resolution pass); writes return placeholder buffers.
class BohmOps final : public TxnOps {
 public:
  BohmOps(BohmTxn* txn, ThreadStats* stats) : txn_(txn), stats_(stats) {}

  const void* Read(TableId table, Key key) override {
    ReadRef* r = txn_->FindRead(table, key);
    assert(r != nullptr && "access to undeclared read-set element");
    if (r == nullptr) return nullptr;
    stats_->reads.Inc();
    Version* v = r->version;  // resolved before Run() was entered
    if (v == nullptr || v->tombstone()) return nullptr;
    return v->data();
  }

  void* Write(TableId table, Key key) override {
    WriteRef* w = txn_->FindWrite(table, key);
    assert(w != nullptr && "access to undeclared write-set element");
    if (w == nullptr) return nullptr;
    stats_->writes.Inc();
    return w->version->data();
  }

  bool Delete(TableId table, Key key) override {
    WriteRef* w = txn_->FindWrite(table, key);
    assert(w != nullptr && "delete of undeclared write-set element");
    if (w == nullptr) return false;
    stats_->writes.Inc();
    w->tombstone = true;  // published as a tombstone version after Run()
    return true;
  }

  void Abort() override { aborted_ = true; }
  bool aborted() const override { return aborted_; }

 private:
  BohmTxn* txn_;
  ThreadStats* stats_;
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
    // during replay (those batches are durable by definition) and broken
    // by a writer failure: the engine then degrades to non-durable
    // execution of in-flight work while Submit rejects anything new,
    // rather than wedging shutdown on a watermark that will never move.
    if (log_writer_ != nullptr &&
        !life_.replaying.load(std::memory_order_acquire)) {
      const uint64_t need = life_.log_base + static_cast<uint64_t>(b);
      AwaitCharged(*exec_log_stall_[exec_id], [&] {
        return log_writer_->durable_seqno() >= need || log_writer_->failed();
      });
    }

    Batch* batch = ring_.Slot(b);
    if (hooks != nullptr && hooks->exec_batch_start) {
      hooks->exec_batch_start(exec_id, b);
    }

    if (prefetch_) {
      ExecStripe<true>(exec_id, *batch);
    } else {
      ExecStripe<false>(exec_id, *batch);
    }
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
// kPrefetch (large tables): CC has annotated every read of the admitted
// batch with the exact version to observe and given every write its
// placeholder, so the next stripe transaction's whole footprint is known
// while the current one runs. Prefetching it overlaps its DRAM misses
// with the current transaction's work instead of taking them one by one
// inside Run(). Only this admitted batch's annotations are read (rule R8).
template <bool kPrefetch>
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
        if constexpr (kPrefetch) {
          if (idx + stride < n) {
            const BohmTxn& next = *batch.txns[idx + stride];
            if (!next.IsComplete()) PrefetchFootprint(next);
          }
        }
        TryExecute(exec_id, txn, 0);
        if (!txn->IsComplete()) all_done = false;
      }
    }
    if (!all_done) wait.Pause();
  }
}

void BohmEngine::PrefetchFootprint(const BohmTxn& txn) const {
  // Interleaved in the order a procedure typically touches them: the
  // version an RMW reads, then the placeholder it writes.
  const uint32_t n = std::max(txn.n_reads, txn.n_writes);
  for (uint32_t i = 0; i < n; ++i) {
    if (i < txn.n_reads && txn.reads[i].version != nullptr) {
      const ReadRef& r = txn.reads[i];
      PrefetchReadRange(r.version,
                        sizeof(Version) + record_sizes_[r.rec.table]);
    }
    if (i < txn.n_writes) {
      const WriteRef& w = txn.writes[i];
      PrefetchWriteRange(w.version,
                         sizeof(Version) + record_sizes_[w.rec.table]);
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
  for (uint32_t i = 0; i < txn->n_writes; ++i) {
    Version* prev = txn->writes[i].version->prev;
    if (prev != nullptr && !EnsureReady(exec_id, prev, depth + 1)) {
      return false;
    }
  }
  for (uint32_t i = 0; i < txn->n_writes; ++i) {
    Version* v = txn->writes[i].version;
    Version* prev = v->prev;
    if (prev == nullptr || prev->tombstone()) {
      v->flags.store(kVersionReady | kVersionTombstone,
                     std::memory_order_release);
    } else {
      std::memcpy(v->data(), prev->data(), record_sizes_[v->table]);
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
  for (uint32_t i = 0; i < txn->n_reads; ++i) {
    const ReadRef& r = txn->reads[i];
    if (r.version != nullptr && !EnsureReady(exec_id, r.version, depth + 1)) {
      txn->state.store(static_cast<uint32_t>(ExecState::kUnprocessed),
                       std::memory_order_release);
      return false;
    }
  }

  ThreadStats& stats = stats_.Slice(exec_id);
  BohmOps ops(txn, &stats);
  txn->proc->Run(ops);

  if (ops.aborted()) {
    if (!FillAbortedWrites(exec_id, txn, depth)) {
      // A preceding version was not producible right now; back out. The
      // re-run is safe: procedures are deterministic in their reads, and
      // the annotated read versions are fixed.
      txn->state.store(static_cast<uint32_t>(ExecState::kUnprocessed),
                       std::memory_order_release);
      return false;
    }
    txn->logic_aborted = true;
    stats.logic_aborts.Inc();
  } else {
    for (uint32_t i = 0; i < txn->n_writes; ++i) {
      const uint32_t flags =
          kVersionReady | (txn->writes[i].tombstone ? kVersionTombstone : 0);
      txn->writes[i].version->flags.store(flags, std::memory_order_release);
    }
    // Submit→commit-ack latency: stamped at Submit(), recorded here at
    // commit publication. Rounded up to a whole microsecond so a
    // committed transaction never contributes a zero sample, and recorded
    // before the commit counter so any fold that observes the commit
    // (e.g. a WaitForIdle-quiesced snapshot) also observes its sample —
    // that ordering is what makes histogram count == commits exact at
    // quiescent points.
    const uint64_t lat_ns = MonotonicNanos() - txn->submit_tick;
    stats.latency_us.Record(lat_ns / 1000 + (lat_ns % 1000 != 0 ? 1 : 0));
    stats.commits.Inc();
  }
  txn->state.store(static_cast<uint32_t>(ExecState::kComplete),
                   std::memory_order_release);
  return true;
}

}  // namespace bohm
