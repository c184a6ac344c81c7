// The concurrency-control stage (Sections 3.2.2–3.2.4), streamed.
//
// Every CC thread walks every batch in log order and, for each
// transaction, processes exactly those read/write-set elements whose
// physical partition (static hash of the key) it currently owns under
// the batch's partition map (identity when adaptive repartitioning is
// off). The decision is purely thread-local; two CC threads never touch
// the same record inside one map epoch, and epoch handoff is ordered by
// the watermark/feed edges (rule R7), so version insertion needs no
// synchronization. The only cross-thread
// coordination is one release store per batch: each thread advances its
// own cc_watermark_ slot when its partition slice is done and streams
// straight into the next batch — it never waits for its peers. The
// execution stage folds min(cc_watermark) to admit batches, so a thread
// that falls behind delays execution of that batch but stalls nobody in
// this stage (the barrier this replaces parked every CC thread once per
// batch).

#include "common/spin.h"
#include "bohm/engine.h"

namespace bohm {

void BohmEngine::CcLoop(uint32_t cc_id) {
  SpscQueue<int64_t>& feed = *cc_feed_[cc_id];
  StallSlot& stall = *cc_stall_[cc_id];
  const BohmTestHooks* hooks = hooks_.get();
  for (;;) {
    int64_t b;
    if (!feed.TryPop(&b)) {
      // Feed dry: wait for the sequencer to seal the next batch, charging
      // the wait to this stage's stall attribution. Shutdown: once the
      // sequencer is done (its done flag is release-stored after the last
      // feed push), a failed re-poll means the feed is drained for good.
      const uint64_t stall_start = MonotonicNanos();
      SpinWait wait;
      for (;;) {
        if (feed.TryPop(&b)) break;
        if (sealed_.sequencer_done.load(std::memory_order_acquire)) {
          if (feed.TryPop(&b)) break;
          stall.ns.Inc(MonotonicNanos() - stall_start);
          return;
        }
        wait.Pause();
      }
      stall.ns.Inc(MonotonicNanos() - stall_start);
    }

    Batch* batch = ring_.Slot(b);
    if (hooks != nullptr && hooks->cc_batch_start) {
      hooks->cc_batch_start(cc_id, b);
    }

    // Recycle versions whose retirement batch the execution layer has
    // fully passed (Condition 3, Section 3.3.2). Amortized once per batch.
    if (cfg_.gc_enabled) DrainRetired(cc_id);

    if (prefetch_) {
      CcBatchPrefetched(cc_id, *batch, b);
    } else {
      // Skip transactions the sequencer's pre-processing found no work in
      // for this thread (Start() caps cc_threads at 64, the mask width).
      const uint64_t my_bit = 1ull << cc_id;
      for (BohmTxn* txn : batch->txns) {
        if ((txn->cc_interest & my_bit) == 0) continue;
        CcProcessTxn<false>(cc_id, txn, b);
      }
    }

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

/// Calls f(table, partition, key, is_write) for every read- and write-set
/// element of `txn` in a partition `cc_id` owns under `owners`.
template <typename F>
void ForOwnedElements(const BohmDatabase& db, const BohmTxn& txn,
                      const uint32_t* owners, uint32_t cc_id, F&& f) {
  for (uint32_t i = 0; i < txn.n_reads; ++i) {
    const RecordId& rec = txn.reads[i].rec;
    BohmTable* table = db.table(rec.table);
    const uint32_t part = table->PartitionOf(rec.key);
    if (owners[part] == cc_id) f(table, part, rec.key, false);
  }
  for (uint32_t i = 0; i < txn.n_writes; ++i) {
    const RecordId& rec = txn.writes[i].rec;
    BohmTable* table = db.table(rec.table);
    const uint32_t part = table->PartitionOf(rec.key);
    if (owners[part] == cc_id) f(table, part, rec.key, true);
  }
}

/// Allocations ahead of use at which CcProcessTxn<true> prefetches the
/// free-list version it will recycle (about one 10-write transaction).
constexpr size_t kRecycleAhead = 8;

}  // namespace

// Memory-level parallelism for large tables (docs/ARCHITECTURE.md). Each
// index touch of the plain loop is a dependent DRAM miss: bucket slot ->
// entry -> head version, and a free-list version to re-initialize per
// write. The batch is fixed and its footprint declared, so the misses of
// later transactions can be started early, AMAC-style (Kocberber et al.,
// PVLDB 2015), in three stages, each one transaction behind the previous:
// while transaction i is processed, i+1 gets its head versions
// prefetched (its entries arrived during stage 2), i+2 its entries (its
// bucket slots arrived during stage 1), and i+3 its bucket slots. Every
// stage touches only partitions this thread owns under the batch's map
// (rule R8).
void BohmEngine::CcBatchPrefetched(uint32_t cc_id, const Batch& batch,
                                   int64_t b) {
  CcState& st = *cc_state_[cc_id];
  const uint32_t* owners = batch.owners;
  const uint64_t my_bit = 1ull << cc_id;
  std::vector<BohmTxn*>& mine = st.mine;
  mine.clear();
  for (BohmTxn* txn : batch.txns) {
    if ((txn->cc_interest & my_bit) != 0) mine.push_back(txn);
  }
  const size_t n = mine.size();
  for (size_t i = 0; i < n + 3; ++i) {
    if (i < n) {
      ForOwnedElements(db_, *mine[i], owners, cc_id,
                       [](BohmTable* t, uint32_t part, Key key, bool) {
                         t->PrefetchBucket(part, key);
                       });
    }
    if (i >= 1 && i - 1 < n) {
      ForOwnedElements(db_, *mine[i - 1], owners, cc_id,
                       [](BohmTable* t, uint32_t part, Key key, bool) {
                         t->PrefetchEntry(part, key);
                       });
    }
    if (i >= 2 && i - 2 < n) {
      // A write reads the head version it supersedes (GC reads its
      // allocator stamp); a read only copies the head pointer.
      ForOwnedElements(db_, *mine[i - 2], owners, cc_id,
                       [](BohmTable* t, uint32_t part, Key key, bool write) {
                         if (write) t->PrefetchHead(part, key);
                       });
    }
    if (i >= 3) CcProcessTxn<true>(cc_id, mine[i - 3], b);
  }
}

template <bool kPrefetch>
void BohmEngine::CcProcessTxn(uint32_t cc_id, BohmTxn* txn, int64_t batch_id) {
  CcState& st = *cc_state_[cc_id];
  // Route by the batch's partition map, not by thread id: the physical
  // partition (static hash) selects the index shard, the map says whether
  // this thread currently owns it (rule R7). With adaptive off the map is
  // the identity, reproducing the original PartitionOf(key) == cc_id
  // routing. The owners array was published by the feed push (rule R5)
  // and stays alive until the batch is fully executed.
  const Batch* batch = ring_.Slot(batch_id);
  const uint32_t* owners = batch->owners;
  RelaxedCounter* touch = st.touch.get();

  // Reads first: the annotation must reference the version that precedes
  // any placeholder this same transaction inserts (RMW reads observe the
  // pre-update value). Because CC threads process transactions in
  // timestamp order, the current head of a record in this partition *is*
  // the correct version for this transaction to read (Section 3.2.3).
  for (uint32_t i = 0; i < txn->n_reads; ++i) {
    ReadRef& r = txn->reads[i];
    BohmTable* table = db_.table(r.rec.table);
    const uint32_t part = table->PartitionOf(r.rec.key);
    if (owners[part] != cc_id) continue;
    if (touch != nullptr) touch[part].Inc();
    BohmIndexEntry* entry = table->Find(part, r.rec.key);
    // relaxed: this CC thread is the current single writer of heads in
    // the partitions it owns (ownership handoff itself rides the
    // watermark/feed release-acquire edges, rule R7), so it reads back
    // the latest store; cross-thread visibility of the annotation itself
    // rides the cc_watermark_ release/acquire edge (rule R5).
    r.version = entry ? entry->head.load(std::memory_order_relaxed) : nullptr;
  }

  // Writes: insert an uninitialized placeholder version per element
  // (Section 3.2.2, Figure 3). The placeholder is fully initialized
  // (producer, prev) *before* it becomes reachable — either via
  // GetOrInsert's pre-publication head install (new record) or via the
  // head release-store below (existing record) — so a concurrent reader
  // never observes a partial version.
  for (uint32_t i = 0; i < txn->n_writes; ++i) {
    WriteRef& w = txn->writes[i];
    BohmTable* table = db_.table(w.rec.table);
    const uint32_t part = table->PartitionOf(w.rec.key);
    if (owners[part] != cc_id) continue;
    if (touch != nullptr) touch[part].Inc();

    if constexpr (kPrefetch) {
      st.alloc.PrefetchRecycled(w.rec.table, kRecycleAhead);
    }
    Version* v = st.alloc.Alloc(w.rec.table, record_sizes_[w.rec.table]);
    v->producer = txn;  // prev stays nullptr from Alloc until linked below
    st.versions_created.Inc();

    bool inserted = false;
    BohmIndexEntry* entry = table->GetOrInsert(part, w.rec.key, v, &inserted);
    if (!inserted) {
      // relaxed: this CC thread is the current single writer of this
      // record's head (single ownership at any moment; handoff rides the
      // R7 edges, so the previous owner's stores are visible), and
      // readers synchronize via the release below (or the entry
      // publication).
      Version* old = entry->head.load(std::memory_order_relaxed);
      v->prev = old;
      // Queue the superseded version for collection once every execution
      // thread has finished this batch. Nothing is written to it: this
      // transaction's place in the order is producer->ts.
      if (old != nullptr && cfg_.gc_enabled) {
        RetireVersion(cc_id, old, batch_id);
      }
      entry->head.store(v, std::memory_order_release);
    }
    w.version = v;
  }
}

}  // namespace bohm
