// The sequencer stage (Section 3.2.1): a single thread that appends every
// input transaction to a logical log. A transaction's timestamp is its
// position in that log (batch id, index within the batch) — timestamp
// assignment is therefore an uncontended, single-writer operation, in
// contrast to the global fetch-and-increment counters of conventional
// multi-version systems (Section 2.1). Submit has already pre-processed
// every transaction (Section 3.2.2), so the sequencer only orders and
// allocates: it neither reads the footprint nor hashes a key.

#include <new>
#include <utility>

#include "common/spin.h"
#include "bohm/engine.h"

namespace bohm {

void BohmEngine::SealBatch(Batch* batch, int64_t id) {
  batch->id = id;
  // Publish the sealed batch: this release store orders every slot write
  // the sequencer made before it, and CC threads admit batch `id` by
  // acquiring it, as does the log thread (docs/CONCURRENCY.md rules R5,
  // R6). Ids are dense, so each consumer counts them itself.
  sealed_.last_sealed_batch.store(id, std::memory_order_release);
}

// Thread-safety: `seq_` holds plain fields written only by this single
// sequencer thread, on cache lines no other thread writes
// (docs/CONCURRENCY.md, "single-writer ownership" and rule R9);
// downstream stages learn about a batch solely through SealBatch's
// release store, which orders everything the sequencer wrote into the
// batch before it.
void BohmEngine::SequencerLoop() {
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
    AwaitCharged(seq_stall_, [&] { return Watermark() >= must_be_done; });
    batch->ResetForReuse();

    // Fill the batch. Seal early when the input queue runs dry so that a
    // trickle of transactions does not wait for a full batch.
    bool stop_after = false;
    uint64_t idle_mark = 0;  // last idle poll's clock; 0 while busy
    SpinWait wait;
    while (batch->txns.size() < cfg_.batch_size) {
      InputItem item;
      if (input_.TryPop(&item)) {
        wait.Reset();
        idle_mark = 0;
        batch->procs.emplace_back(item.proc);
        // The version array is left for the CC threads to fill.
        void* mem = batch->arena.Allocate(BohmTxn::BytesFor(item.records),
                                          alignof(BohmTxn));
        batch->txns.push_back(new (mem) BohmTxn(item.proc, item.submit_tick,
                                                item.cc_interest));
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
