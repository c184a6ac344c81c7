// Garbage collection, Condition 3 (Section 3.3.2): a version superseded by
// a transaction in batch b can be recycled once every execution thread has
// finished batch b. The low-watermark is folded on demand from per-thread
// completed-batch counters, each written only by its own execution thread
// — the RCU-flavoured scheme the paper describes, with no shared counter
// updates on the transaction path.

#include "bohm/engine.h"

namespace bohm {

// The retire queue holds one group per batch: the batch's marker, then
// (version, table) for every version the batch superseded in this
// thread's partition. A drain frees whole groups whose batch the
// watermark has passed, into the free list of the table recorded at
// retirement, so it never reads a retired version: the execution thread
// that filled it last still holds its line.
//
// Thread-safety: `retired` and `alloc` are plain (unlocked) members of
// CcState because each is touched only by the one CC thread that owns the
// partition (docs/CONCURRENCY.md, "single-writer ownership"). That thread
// allocated every version of its partition and is the only one that
// supersedes them, so a retiree always goes back to the free lists it
// came from. Watermark() folds the per-thread *execution* watermarks
// (release-published), so every version at or below the watermark is
// quiescent by the time it is freed here. This composes with the streamed
// CC stage's own watermarks: the execution watermark can never pass the
// CC watermark (execution only admits batches the CC fold has passed), so
// a CC thread running several batches ahead merely queues more retirees —
// it can never free a version an execution thread might still read, and
// slot reuse (also keyed on Watermark()) can never recycle a batch a CC
// thread is still inside.
void BohmEngine::DrainRetired(uint32_t cc_id) {
  CcState& st = *cc_state_[cc_id];
  RetireQueue& q = st.retired;
  if (q.empty()) return;
  const int64_t watermark = Watermark();
  uint64_t freed = 0;
  // The front entry is always a batch marker (PushBatch opens each group).
  while (!q.empty() && static_cast<int64_t>(q.front().tag) <= watermark) {
    q.PopFront();
    for (; !q.empty() && q.front().version != nullptr; q.PopFront()) {
      st.alloc.Free(q.front().version, static_cast<TableId>(q.front().tag));
      ++freed;
    }
  }
  if (freed != 0) st.freed.Inc(freed);
}

}  // namespace bohm
