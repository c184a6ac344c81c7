#include "bohm/version.h"

#include <utility>

namespace bohm {

Version* VersionAllocator::Alloc(TableId table, uint32_t record_size) {
  if (table < free_lists_.size() && !free_lists_[table].empty()) {
    Version* v = free_lists_[table].back();
    free_lists_[table].pop_back();
    // Re-initialize in place; payload is overwritten by the executor.
    // relaxed: the version is private to this CC thread until the release
    // store of its record's head publishes it, which orders these
    // initializing stores for readers.
    v->flags.store(0, std::memory_order_relaxed);
    v->producer = nullptr;
    v->prev = nullptr;
    return v;
  }
  void* mem = arena_.Allocate(VersionBytes(record_size), kCacheLineSize);
  return new (mem) Version();
}

void RetireQueue::Grow() {
  std::vector<Entry> bigger(ring_.empty() ? 64 : 2 * ring_.size());
  for (uint64_t i = head_; i != tail_; ++i) {
    bigger[i - head_] = ring_[i & mask_];
  }
  tail_ -= head_;
  head_ = 0;
  ring_ = std::move(bigger);
  mask_ = ring_.size() - 1;
}

}  // namespace bohm
