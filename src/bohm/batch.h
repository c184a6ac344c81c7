// Batches and the slot ring backing the streamed Bohm pipeline.
//
// Coordination happens once per batch, never per transaction (Section
// 3.2.4) — and since the move to epoch watermarks, "coordination" means
// publishing a counter, not parking at a barrier. The sequencer fills a
// batch slot and publishes it by advancing the sealed watermark
// (last_sealed_batch); batch ids are dense, so every CC thread walks every
// sealed batch in order (deriving parallelism from intra-transaction
// partitioning, not batch partitioning) and advances its own entry in a
// WatermarkSet (common/barrier.h) when its partition slice is done.
// Execution threads may start striping batch b as soon as
// min(cc_watermark) >= b — CC threads stream straight into batch b+1
// while execution is still inside b (Section 3.3.1).
//
// At most `depth` batches are in flight: batch b is sealed only once
// every execution thread has finished batch b - depth, which the
// sequencer checks against the execution low-watermark — the same
// watermark that drives garbage collection (Section 3.3.2). Because the
// execution watermark can never pass the CC watermark, this also implies
// every CC thread has left batch b - depth.
//
// The ring nevertheless holds 2 * depth slots, so batch p's slot is
// reused for batch p + 2 * depth. The slack covers dependency chasing:
// an execution thread in batch c follows a version's producer pointer
// into batch p only after seeing that version not ready, and p was still
// incomplete when c was sealed, so c <= p + depth. The producer may
// complete and batch p drain right after that check; reusing p's slot
// then waits for every execution thread to finish p + depth >= c, which
// orders the stale pointer's last use before the slot is overwritten.
//
// The Batch struct itself carries no publication state: the sealed
// watermark store is the sequencer's release publication of the filled
// slot, and the CC watermark stores are the CC stage's
// (docs/CONCURRENCY.md rule R5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "bohm/txn_state.h"

namespace bohm {

/// Procedures ahead of the one being destroyed at which
/// Batch::ResetForReuse prefetches the procedure object.
inline constexpr size_t kDestroyObjectAhead = 8;

struct Batch {
  int64_t id = -1;
  std::vector<BohmTxn*> txns;
  /// Owns the procedures for the lifetime of the batch slot generation.
  std::vector<ProcedurePtr> procs;
  /// Holds the BohmTxn objects and their read/write ref arrays.
  Arena arena{1u << 16};

  void ResetForReuse() {
    txns.clear();
    DestroyProcs();
    arena.Reset();
  }

  /// Destroys the owned procedures of the slot's previous generation.
  /// They were allocated by client threads and last touched by exec
  /// threads, so each delete misses on the object, and free writes into
  /// it. A prefetch-for-write kDestroyObjectAhead procedures ahead
  /// overlaps those misses; it covers the whole StoredProcedure, so the
  /// inline footprint (ReadWriteSet::kInlineRecords) too. A footprint that
  /// spilled has one more block, which is not prefetched: a second stage
  /// that read its address from the prefetched object measured no faster
  /// on either perfbench workload.
  void DestroyProcs() {
    const size_t n = procs.size();
    for (size_t i = 0; i < n; ++i) {
      if (i + kDestroyObjectAhead < n) {
        PrefetchWriteRange(procs[i + kDestroyObjectAhead].get(),
                           sizeof(StoredProcedure));
      }
      procs[i].reset();
    }
    procs.clear();
  }
};

/// Ring of 2 * depth batch slots for a pipeline of `depth` batches in
/// flight (see the header comment for why the slack is needed).
class BatchRing {
 public:
  explicit BatchRing(uint32_t depth) : depth_(depth) {
    slots_.reserve(2 * depth);
    for (uint32_t i = 0; i < 2 * depth; ++i) {
      slots_.push_back(std::make_unique<Batch>());
    }
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(BatchRing);

  /// Most batches in flight at once.
  uint32_t depth() const { return depth_; }
  Batch* Slot(int64_t batch_id) {
    return slots_[static_cast<uint64_t>(batch_id) % slots_.size()].get();
  }

 private:
  const uint32_t depth_;
  std::vector<std::unique_ptr<Batch>> slots_;
};

}  // namespace bohm
