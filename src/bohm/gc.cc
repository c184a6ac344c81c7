// Garbage collection, Condition 3 (Section 3.3.2): a version superseded by
// a transaction in batch b can be recycled once every execution thread has
// finished batch b. The low-watermark is folded on demand from per-thread
// completed-batch counters, each written only by its own execution thread
// — the RCU-flavoured scheme the paper describes, with no shared counter
// updates on the transaction path.

#include "bohm/engine.h"

namespace bohm {

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
  if (st.retired.empty()) return;
  const int64_t watermark = Watermark();
  while (!st.retired.empty() && st.retired.front().second <= watermark) {
    st.alloc.Free(st.retired.front().first);
    st.retired.pop_front();
    st.freed.Inc();
  }
}

}  // namespace bohm
