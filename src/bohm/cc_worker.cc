// The concurrency-control stage (Sections 3.2.2–3.2.4), streamed.
//
// Every CC thread walks every batch in log order and, for each
// transaction, processes exactly those read/write-set elements whose
// physical partition (the key modulo the CC thread count) is its own:
// PartitionOf(key) == cc_id. The decision is purely thread-local and the
// assignment never changes, so two CC threads never touch the same
// record and version insertion needs no synchronization. The only
// cross-thread coordination is one acquire of the sequencer's sealed
// watermark and one release store per batch: each thread advances its
// own cc_watermark_ slot when its partition slice is done and streams
// straight into the next batch — it never waits for its peers. The
// execution stage folds min(cc_watermark) to admit batches, so a thread
// that falls behind delays execution of that batch but stalls nobody in
// this stage (the barrier this replaces parked every CC thread once per
// batch).

#include <span>

#include "common/prefetch.h"
#include "common/spin.h"
#include "bohm/engine.h"

namespace bohm {

void BohmEngine::CcLoop(uint32_t cc_id) {
  StallSlot& stall = *cc_stall_[cc_id];
  const BohmTestHooks* hooks = hooks_.get();
  for (int64_t b = 0;; ++b) {
    // Wait for the sequencer to seal batch b, charging the wait to this
    // stage's stall attribution. The done flag is release-stored after
    // the last seal, so once it is seen last_sealed_batch() is final.
    AwaitCharged(stall, [&] {
      return last_sealed_batch() >= b ||
             sealed_.sequencer_done.load(std::memory_order_acquire);
    });
    if (last_sealed_batch() < b) return;

    Batch* batch = ring_.Slot(b);
    if (hooks != nullptr && hooks->cc_batch_start) {
      hooks->cc_batch_start(cc_id, b);
    }

    // Recycle versions whose retirement batch the execution layer has
    // fully passed (Condition 3, Section 3.3.2), then open batch b's group
    // of retirees. Amortized once per batch.
    if (cfg_.gc_enabled) {
      DrainRetired(cc_id);
      cc_state_[cc_id]->retired.PushBatch(b);
    }

    CcBatchPrefetched(cc_id, *batch);

    if (hooks != nullptr && hooks->cc_batch_end) {
      hooks->cc_batch_end(cc_id, b);
    }
    // Epoch-watermark publication (replaces the per-batch barrier): the
    // release store orders every annotation and placeholder this thread
    // wrote into batch b before it, so an exec thread whose watermark
    // fold admits b observes them all (docs/CONCURRENCY.md rule R5).
    cc_watermark_.Advance(cc_id, b);
  }
}

namespace {

/// Calls f(table, key) for every read- and write-set element of `txn` in
/// partition `cc_id`, the one this thread owns.
template <typename F>
void ForOwnedElements(const BohmDatabase& db, const BohmTxn& txn,
                      uint32_t cc_id, F&& f) {
  const ReadWriteSet& set = txn.proc->rwset();
  auto visit = [&](const RecordId& rec) {
    BohmTable* table = db.table(rec.table);
    if (table->PartitionOf(rec.key) == cc_id) f(table, rec.key);
  };
  for (const RecordId& rec : set.reads()) visit(rec);
  for (const RecordId& rec : set.writes()) visit(rec);
}

/// Allocations ahead of use at which CcProcessTxn prefetches the
/// free-list version it will recycle (about one 10-write transaction).
constexpr size_t kRecycleAhead = 8;

}  // namespace

// Memory-level parallelism (docs/ARCHITECTURE.md). Each head slot is a
// cache miss once a table outgrows the caches, and so is the free-list
// version to re-initialize per write. The batch is fixed and its
// footprint declared, so the misses of later transactions can be started
// early, AMAC-style (Kocberber et al., PVLDB 2015): while transaction i is
// processed, the head slots of i+2 are prefetched for writing. A slot's
// address is computed from its key, so one stage suffices. The superseded
// head version itself is never read (CC only links and retires its
// pointer), so it is not prefetched. Every prefetch touches only this
// thread's partition (rule R8). Transactions Submit's pre-processing found
// no work in for this thread are skipped (Start() caps cc_threads at 64,
// the mask width).
void BohmEngine::CcBatchPrefetched(uint32_t cc_id, const Batch& batch) {
  CcState& st = *cc_state_[cc_id];
  const uint64_t my_bit = 1ull << cc_id;
  std::vector<BohmTxn*>& mine = st.mine;
  mine.clear();
  for (BohmTxn* txn : batch.txns) {
    if ((txn->cc_interest & my_bit) != 0) mine.push_back(txn);
  }
  const size_t n = mine.size();
  for (size_t i = 0; i < n + 2; ++i) {
    if (i < n) {
      ForOwnedElements(db_, *mine[i], cc_id, [](BohmTable* t, Key key) {
        PrefetchWrite(t->Head(key));
      });
    }
    if (i >= 2) CcProcessTxn(cc_id, mine[i - 2]);
  }
}

void BohmEngine::CcProcessTxn(uint32_t cc_id, BohmTxn* txn) {
  CcState& st = *cc_state_[cc_id];
  // The footprint is read in place: it is immutable after Submit, and the
  // sealed-watermark acquire that admitted this batch ordered the client's
  // writes of it before these reads (docs/CONCURRENCY.md, R10). Submit
  // refused keys past a table's capacity, so every Head() below is a slot.
  const ReadWriteSet& set = txn->proc->rwset();
  const std::span<const RecordId> reads = set.reads();
  const std::span<const RecordId> writes = set.writes();
  Version** read_versions = txn->versions();
  Version** write_versions = read_versions + reads.size();

  // Reads first: the annotation must reference the version that precedes
  // any placeholder this same transaction inserts (RMW reads observe the
  // pre-update value). Because CC threads process transactions in
  // timestamp order, the current head of a record in this partition *is*
  // the correct version for this transaction to read (Section 3.2.3).
  for (size_t i = 0; i < reads.size(); ++i) {
    const RecordId& rec = reads[i];
    BohmTable* table = db_.table(rec.table);
    if (table->PartitionOf(rec.key) != cc_id) continue;
    // relaxed: this CC thread is the only writer of heads in its
    // partition, so it reads back the latest store; cross-thread
    // visibility of the annotation itself rides the cc_watermark_
    // release/acquire edge (rule R5). nullptr: never written.
    read_versions[i] = table->Head(rec.key)->load(std::memory_order_relaxed);
  }

  // Writes: insert an uninitialized placeholder version per element
  // (Section 3.2.2, Figure 3). The placeholder is fully initialized
  // (producer, prev) *before* the head release-store below makes it
  // reachable, so a concurrent reader never observes a partial version.
  for (size_t i = 0; i < writes.size(); ++i) {
    const RecordId& rec = writes[i];
    BohmTable* table = db_.table(rec.table);
    if (table->PartitionOf(rec.key) != cc_id) continue;

    st.alloc.PrefetchRecycled(rec.table, kRecycleAhead);
    Version* v = st.alloc.Alloc(rec.table, record_sizes_[rec.table]);
    v->producer = txn;
    std::atomic<Version*>* head = table->Head(rec.key);
    // relaxed: this CC thread is the only writer of this record's head,
    // and readers synchronize via the release below.
    Version* old = head->load(std::memory_order_relaxed);
    v->prev = old;
    // Queue the superseded version, with its table, in this batch's group
    // for collection once every execution thread has finished the batch
    // (src/bohm/gc.cc). Nothing is read from or written to it: the chain
    // order itself is the log order.
    if (old != nullptr && cfg_.gc_enabled) {
      st.retired.PushVersion(old, rec.table);
    }
    head->store(v, std::memory_order_release);
    write_versions[i] = v;
  }
}

}  // namespace bohm
