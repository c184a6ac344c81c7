// Record versions, the layout of Figure 3 in the paper minus its two
// timestamps: {txn pointer, data, prev pointer}. Bohm never reads a
// version's begin or end timestamp — ordering is carried by the producing
// transaction (producer->ts) and by read annotation (Section 3.2.3), which
// hands every read the exact version to observe — so the fields are not
// stored, and superseding a version does not write to it.
//
// A version is created by a concurrency-control thread as an uninitialized
// placeholder (Section 3.2.2); its data is produced later by an execution
// thread evaluating the producing transaction (Section 3.3.1). The ready
// flag is the "has the data been produced yet" signal execution threads
// block on — the one place in Bohm where writes may block reads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "txn/key.h"

namespace bohm {

class BohmTxn;

/// Version state bits (in `flags`).
inline constexpr uint32_t kVersionReady = 1u << 0;
/// The record logically does not exist at this version (deleted record, or
/// an aborted insert whose placeholder must behave as "absent").
inline constexpr uint32_t kVersionTombstone = 1u << 1;

struct Version {
  /// kVersionReady once the data has been produced (plus kVersionTombstone
  /// when the record is absent at this version).
  std::atomic<uint32_t> flags{0};
  /// Table the version belongs to; selects the allocator size class.
  TableId table = 0;
  /// CC thread whose VersionAllocator produced this version. With
  /// adaptive repartitioning the retiring thread may differ from the
  /// allocating one (the partition migrated in between); GC routes the
  /// retiree back to this thread's free lists (src/bohm/gc.cc). Stamped
  /// by Alloc, immutable afterwards.
  uint32_t allocator = 0;
  /// The transaction that must be evaluated to obtain the data
  /// (Figure 3's "Txn Pointer"); nullptr for loaded versions.
  BohmTxn* producer = nullptr;
  /// The version this one superseded (Figure 3's "Prev Pointer").
  Version* prev = nullptr;

  /// Payload bytes follow the struct.
  void* data() { return this + 1; }
  const void* data() const { return this + 1; }

  bool ready() const {
    return (flags.load(std::memory_order_acquire) & kVersionReady) != 0;
  }
  bool tombstone() const {
    return (flags.load(std::memory_order_acquire) & kVersionTombstone) != 0;
  }
};

/// Thread-local version allocator with one free list per table (versions
/// are fixed-size per table). The GC (Section 3.3.2) recycles versions
/// through these free lists, so steady-state version turnover performs no
/// malloc/free and no cross-thread memory traffic: a version is always
/// allocated, retired, and recycled by the same CC thread.
class VersionAllocator {
 public:
  /// `huge_pages`: carve versions from huge-page arena blocks (engines
  /// whose catalog declares a large version footprint, bohm/table.h).
  explicit VersionAllocator(
      size_t arena_block_bytes = Arena::kDefaultBlockBytes,
      bool huge_pages = false)
      : arena_(arena_block_bytes, huge_pages) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(VersionAllocator);

  /// Id of the CC thread that owns this allocator, stamped into every
  /// version it produces (Version::allocator). Set once at engine
  /// construction, before any Alloc.
  void set_owner(uint32_t owner) { owner_ = owner; }

  /// Allocates a version with `record_size` payload bytes for `table`.
  Version* Alloc(TableId table, uint32_t record_size);

  /// Returns a version to the per-table free list. The caller must own the
  /// version (same-thread discipline).
  void Free(Version* v);

  /// Prefetches, for writing, the header of the version that the
  /// `ahead`-th next Alloc for `table` will recycle (0: the very next).
  /// Alloc re-initializes that header, and the free list is LIFO, so the
  /// target is known long before the allocation. No-op past the list end.
  void PrefetchRecycled(TableId table, size_t ahead) const {
    if (table >= free_lists_.size()) return;
    const std::vector<Version*>& list = free_lists_[table];
    if (ahead < list.size()) PrefetchWrite(list[list.size() - 1 - ahead]);
  }

  /// Number of versions currently parked on free lists (test hook).
  size_t FreeCount() const;
  size_t allocated_bytes() const { return arena_.allocated_bytes(); }
  const Arena& arena() const { return arena_; }

 private:
  Arena arena_;
  uint32_t owner_ = 0;
  std::vector<std::vector<Version*>> free_lists_;  // indexed by table id
};

}  // namespace bohm
