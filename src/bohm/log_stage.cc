// The durable-log stage (Section 2.3): the sequenced input is the whole
// redo log, so making a batch durable means writing the transactions of
// its slot, in seal order. One log thread, spawned only when durability
// is on, is a further consumer of the batch ring: like a CC thread it
// counts batch ids itself and waits on the sealed watermark. It encodes
// each sealed batch into one reused buffer and appends the record to the
// BatchLog, which applies the sync cadence and publishes the durable
// watermark that execution admits batches by (docs/CONCURRENCY.md rule
// R6).

#include <string>

#include "common/spin.h"
#include "bohm/engine.h"
#include "log/codec.h"

namespace bohm {

// Reading the slot needs no synchronization of its own: the seal's
// release store orders every slot write (rule R5), procedures do not
// change after Submit (rule R10), and execution cannot start batch b —
// so cannot finish it, and the sequencer cannot recycle its slot — until
// this thread has published b as durable. After a write or sync error
// the thread stops reading slots at once; execution then stops waiting
// for it, and slots recycle.
void BohmEngine::LogLoop(int64_t first) {
  BatchLog& log = *log_;
  SpinWait wait;
  std::string payload;
  for (int64_t b = first;; ++b) {
    // The done flag is release-stored after the last seal, so once it is
    // seen last_sealed_batch() is final.
    wait.Reset();
    while (last_sealed_batch() < b &&
           !sealed_.sequencer_done.load(std::memory_order_acquire)) {
      // No sealed batch is waiting: sync what has accumulated, so an idle
      // pipeline never leaves a batch un-durable.
      (void)log.SyncIfUnsynced();
      wait.Pause();
    }
    if (last_sealed_batch() < b || log.failed()) break;
    // Every sealed batch gets a record, even one whose transactions are
    // all non-loggable: the durable-ack gate waits for seqno
    // log_base + b, and recovery refuses a seqno gap.
    payload.clear();
    EncodeBatchPayload(&payload, ring_.Slot(b)->procs);
    if (!log.Append(life_.log_base + static_cast<uint64_t>(b), payload).ok()) {
      break;
    }
  }
  (void)log.Close();
}

}  // namespace bohm
