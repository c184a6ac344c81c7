// The sequencer stage (Section 3.2.1): a single thread that appends every
// input transaction to a logical log. A transaction's timestamp is its
// position in that log — timestamp assignment is therefore an uncontended,
// single-writer operation, in contrast to the global fetch-and-increment
// counters of conventional multi-version systems (Section 2.1).

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/spin.h"
#include "bohm/engine.h"
#include "log/codec.h"

namespace bohm {

// Hands the sealed batch to the log-writer thread (sequencer thread
// only). Runs *before* the batch is announced to the pipeline so the
// writer sees records in exactly seal order; the only wait here is ring
// back-pressure, attributed to the log stall counter. Every sealed batch
// gets a record — even one whose transactions are all non-loggable
// read-only observers produces an (empty) record, because the durable-ack
// gate in ExecLoop waits for seqno log_base + id and seqnos must stay
// dense for the recovery scan.
void BohmEngine::LogSealedBatch(const Batch& batch, int64_t id) {
  if (log_writer_ == nullptr) return;
  if (life_.replaying.load(std::memory_order_acquire)) return;
  // Degraded mode: the log is dead, Submit is already rejecting; batches
  // still in flight execute without durability rather than wedging.
  if (log_writer_->failed()) return;
  seq_.log_txn_scratch.clear();
  for (const BohmTxn* txn : batch.txns) {
    if (txn->proc->codec_id() != kNotLoggable) {
      seq_.log_txn_scratch.push_back(txn->proc);
    }
  }
  std::string payload;
  EncodeBatchPayload(&payload, seq_.log_txn_scratch);
  const uint64_t stall_ns =
      log_writer_->Append(life_.log_base + static_cast<uint64_t>(id),
                          std::move(payload));
  if (stall_ns != 0) seq_log_stall_.ns.Inc(stall_ns);
}

// Folds the cumulative per-partition touch counters across CC threads
// and hands them to the repartition controller, which may stage a
// pending migration (promoted later once its watermark gate opens).
void BohmEngine::FoldTouchCounters() {
  const uint32_t parts = db_.partitions();
  std::fill(seq_.touch_totals.begin(), seq_.touch_totals.end(), 0);
  for (const auto& st : cc_state_) {
    const RelaxedCounter* touch = st->touch.get();
    for (uint32_t p = 0; p < parts; ++p) {
      seq_.touch_totals[p] += touch[p].Get();
    }
  }
  repart_->Observe(seq_.touch_totals);
}

void BohmEngine::SealBatch(Batch* batch, int64_t id) {
  batch->id = id;
  LogSealedBatch(*batch, id);
  // Publish the sealed batch by announcing its id through every
  // consumer's SPSC feed ring: the ring's release store is what makes the
  // slot contents the sequencer just wrote visible to that consumer
  // (docs/CONCURRENCY.md rule R5). The pushes cannot fail — feed capacity
  // is at least the pipeline depth and the slot-reuse back-pressure above
  // bounds un-consumed sealed batches by the depth.
  for (auto& feed : cc_feed_) {
    bool pushed = feed->TryPush(id);
    assert(pushed && "cc feed overflow: back-pressure invariant broken");
    (void)pushed;
  }
  for (auto& feed : exec_feed_) {
    bool pushed = feed->TryPush(id);
    assert(pushed && "exec feed overflow: back-pressure invariant broken");
    (void)pushed;
  }
  sealed_.last_sealed_batch.store(id, std::memory_order_release);
}

// Thread-safety: `seq_` holds plain fields written only by this single
// sequencer thread, on cache lines no other thread writes
// (docs/CONCURRENCY.md, "single-writer ownership" and rule R9);
// downstream stages learn about a batch solely through SealBatch's
// release stores, which order everything the sequencer wrote into the
// batch before them.
void BohmEngine::SequencerLoop() {
  SpinWait wait;
  for (;;) {
    const int64_t id = seq_.next_batch_id;
    // Back-pressure: batch id may enter the pipeline only once every
    // execution thread has finished batch id - depth, which also makes
    // the slot's previous occupant (id - 2 * depth) safe to overwrite
    // (bohm/batch.h). This is the only place the sequencer waits on
    // downstream progress; the time spent here is the sequencer's stall
    // attribution.
    Batch* batch = ring_.Slot(id);
    const int64_t must_be_done = id - static_cast<int64_t>(ring_.depth());
    if (Watermark() < must_be_done) {
      const uint64_t stall_start = MonotonicNanos();
      wait.Reset();
      while (Watermark() < must_be_done) wait.Pause();
      seq_stall_.ns.Inc(MonotonicNanos() - stall_start);
    }
    batch->ResetForReuse();

    // Adaptive repartitioning (rule R7): at the fold cadence, read the
    // touch counters and maybe stage a migration; then fetch the map this
    // batch will be sequenced under (promoting a gated pending map once
    // every source thread's cc watermark has passed id - 1). Also retire
    // map versions no in-flight batch can still reference.
    if (cfg_.adaptive.enabled && id > 0 &&
        id % static_cast<int64_t>(cfg_.adaptive.interval_batches) == 0) {
      FoldTouchCounters();
    }
    const uint32_t* owners = nullptr;
    auto stamp_map = [&] {
      const PartitionMapVersion* pmap =
          repart_->MapForBatch(id, cc_watermark_);
      owners = pmap->owners.data();
      batch->part_epoch = pmap->epoch;
      batch->owners = owners;
    };
    stamp_map();
    repart_->Prune(Watermark());

    // Fill the batch. Seal early when the input queue runs dry so that a
    // trickle of transactions does not wait for a full batch.
    bool stop_after = false;
    uint64_t idle_mark = 0;  // last idle poll's clock; 0 while busy
    wait.Reset();
    while (batch->txns.size() < cfg_.batch_size) {
      InputItem item;
      if (input_.TryPop(&item)) {
        wait.Reset();
        idle_mark = 0;
        StoredProcedure* raw = item.proc;
        if (item.owned) batch->procs.emplace_back(raw);
        const ReadWriteSet& set = raw->rwset();
        auto* txn = batch->arena.New<BohmTxn>();
        txn->proc = raw;
        txn->ts = seq_.next_ts++;
        txn->batch_id = id;
        txn->submit_tick = item.submit_tick;
        txn->n_reads = static_cast<uint32_t>(set.reads().size());
        txn->n_writes = static_cast<uint32_t>(set.writes().size());
        // Pre-processing (Section 3.2.2): mark which CC *threads* this
        // transaction has work for, under this batch's partition map, so
        // CC threads skip it wholesale. Owner ids are < cc_threads <= 64
        // (Start() validates), so the shift is always defined — partition
        // counts above 64 are fine.
        auto owner_bit = [&](const RecordId& rec) {
          return 1ull << owners[db_.table(rec.table)->PartitionOf(rec.key)];
        };
        uint64_t mask = 0;
        if (txn->n_reads > 0) {
          txn->reads = static_cast<ReadRef*>(batch->arena.Allocate(
              sizeof(ReadRef) * txn->n_reads, alignof(ReadRef)));
          for (uint32_t i = 0; i < txn->n_reads; ++i) {
            txn->reads[i] = ReadRef{set.reads()[i], nullptr};
            mask |= owner_bit(set.reads()[i]);
          }
        }
        if (txn->n_writes > 0) {
          txn->writes = static_cast<WriteRef*>(batch->arena.Allocate(
              sizeof(WriteRef) * txn->n_writes, alignof(WriteRef)));
          for (uint32_t i = 0; i < txn->n_writes; ++i) {
            txn->writes[i] = WriteRef{set.writes()[i], nullptr, false};
            mask |= owner_bit(set.writes()[i]);
          }
        }
        txn->cc_interest = mask;
        batch->txns.push_back(txn);
        continue;
      }
      // Queue empty.
      if (!batch->txns.empty()) break;  // seal a partial batch immediately
      if (life_.stopping.load(std::memory_order_acquire)) {
        stop_after = true;
        break;
      }
      // Starved: idle time accrues poll to poll, so a monitor sees it
      // while the wait is still going on. Only empty polls read the clock.
      const uint64_t now = MonotonicNanos();
      if (idle_mark != 0) seq_idle_.ns.Inc(now - idle_mark);
      idle_mark = now;
      // Nothing is sequenced under this batch's map yet, so fetch it
      // again: a pending migration's gate is checked right after the
      // previous seal, when CC is still behind, and would otherwise get
      // another chance only at the next batch boundary — which a
      // sequencer that keeps running ahead of CC may never reach with
      // the gate open.
      stamp_map();
      wait.Pause();
    }

    if (!batch->txns.empty()) {
      SealBatch(batch, id);
      ++seq_.next_batch_id;
    }
    if (stop_after) break;
  }
  sealed_.sequencer_done.store(true, std::memory_order_release);
}

}  // namespace bohm
