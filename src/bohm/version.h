// Record versions, the layout of Figure 3 in the paper minus its two
// timestamps: {txn pointer, data, prev pointer}. Bohm never reads a
// version's begin or end timestamp — ordering is the order in which CC
// threads link versions (log order, Section 3.2.1) and read annotation
// (Section 3.2.3) hands every read the exact version to observe — so the
// fields are not stored, and superseding a version does not write to it.
//
// A version is created by a concurrency-control thread as an uninitialized
// placeholder (Section 3.2.2); its data is produced later by an execution
// thread evaluating the producing transaction (Section 3.3.1). The ready
// flag is the "has the data been produced yet" signal execution threads
// block on — the one place in Bohm where writes may block reads.
//
// A CC thread initializes a version and installs it as its record's head
// in the table's array (bohm/table.h); an execution thread then fills it
// and publishes it. Each version sits on whole cache lines of its own
// (VersionBytes), so those two writers, and the writers of neighbouring
// versions, never share a line.
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
/// an aborted insert whose placeholder must behave as "absent"). A
/// transaction that deletes the record sets it on its placeholder while
/// the version is not yet ready; readers look at it only once kVersionReady
/// is set, which publishes it.
inline constexpr uint32_t kVersionTombstone = 1u << 1;

struct Version {
  /// kVersionReady once the data has been produced (plus kVersionTombstone
  /// when the record is absent at this version).
  std::atomic<uint32_t> flags{0};
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

/// The header is paid once per version of every record: the flags word,
/// then the two pointers.
static_assert(sizeof(Version) == 24);

/// Bytes one version of a `record_size`-byte record occupies: header and
/// payload rounded up to whole cache lines. Versions start on a line of
/// their own, because a version is written by two threads in turn (the
/// CC thread that allocates and links it, then the execution thread that
/// fills and publishes it), and two versions sharing a line would make
/// each thread's writes pull the line from the other (docs/CONCURRENCY.md,
/// rule R9).
inline uint32_t VersionBytes(uint32_t record_size) {
  const auto bytes = static_cast<uint32_t>(sizeof(Version)) + record_size;
  return (bytes + kCacheLineSize - 1) & ~uint32_t{kCacheLineSize - 1};
}

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

  /// Allocates a version with `record_size` payload bytes for `table`, on
  /// VersionBytes(record_size) bytes of whole, line-aligned cache lines.
  Version* Alloc(TableId table, uint32_t record_size);

  /// Returns a version of `table` to that table's free list. The caller
  /// must own the version (same-thread discipline) and name the table it
  /// was allocated for; the version itself is not read, so freeing one
  /// another thread wrote last costs no cache miss.
  void Free(Version* v, TableId table) {
    if (free_lists_.size() <= table) free_lists_.resize(table + 1);
    free_lists_[table].push_back(v);
  }

  /// Prefetches, for writing, the header of the version that the
  /// `ahead`-th next Alloc for `table` will recycle (0: the very next).
  /// Alloc re-initializes that header, and the free list is LIFO, so the
  /// target is known long before the allocation. No-op past the list end.
  void PrefetchRecycled(TableId table, size_t ahead) const {
    if (table >= free_lists_.size()) return;
    const std::vector<Version*>& list = free_lists_[table];
    if (ahead < list.size()) PrefetchWrite(list[list.size() - 1 - ahead]);
  }

  size_t allocated_bytes() const { return arena_.allocated_bytes(); }
  const Arena& arena() const { return arena_; }

 private:
  Arena arena_;
  std::vector<std::vector<Version*>> free_lists_;  // indexed by table id
};

/// A CC thread's superseded versions awaiting collection, in retirement
/// order: a batch marker, then the (version, table) pairs that batch
/// retired. A growable ring whose storage is reused, so steady-state
/// retirement allocates nothing.
class RetireQueue {
 public:
  /// `version` is nullptr for a batch marker, whose `tag` is the batch id;
  /// otherwise `tag` is the version's table.
  struct Entry {
    Version* version;
    uint64_t tag;
  };

  bool empty() const { return head_ == tail_; }
  const Entry& front() const { return ring_[head_ & mask_]; }
  void PopFront() { ++head_; }
  void PushBatch(int64_t batch_id) {
    Push({nullptr, static_cast<uint64_t>(batch_id)});
  }
  void PushVersion(Version* v, TableId table) { Push({v, table}); }

 private:
  void Push(Entry e) {
    if (tail_ - head_ == ring_.size()) Grow();
    ring_[tail_++ & mask_] = e;
  }
  /// Doubles the ring, unrolling the live entries to its start.
  void Grow();

  std::vector<Entry> ring_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
};

}  // namespace bohm
