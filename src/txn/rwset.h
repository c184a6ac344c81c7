// Declared read/write sets.
//
// Bohm's concurrency-control phase requires each transaction's write-set
// before execution, and exploits the read-set when available (Section 3,
// "the write-set of a transaction must be deducible before the transaction
// begins"). The 2PL baseline uses both sets for ordered, deadlock-free
// lock acquisition. The optimistic engines ignore the declarations and
// discover accesses dynamically, as real optimistic systems do.
//
// The set lives inside its procedure object: both sets share one buffer,
// [reads | writes], and a footprint of up to kInlineRecords records sits
// in the object itself. A typical OLTP procedure is therefore a single
// heap block, and Bohm's sequencer — which reads every footprint during
// pre-processing (Section 3.2.2) and later frees every procedure — touches
// one object per such transaction.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "txn/key.h"

namespace bohm {

/// Access intent for one element of a read/write set.
enum class AccessMode : uint8_t {
  kRead = 0,
  kWrite = 1,
};

/// A transaction's declared footprint. Element order is preserved: the
/// Bohm engine annotates reads[i] / writes[i] with version references in
/// declaration order, so procedures can refer to their accesses by index.
/// Duplicates within a set are invalid (Validate rejects them); a record
/// that is read and written (an RMW) appears once in each set.
///
/// Storage is one contiguous buffer, reads first, then writes. Up to
/// kInlineRecords records are kept inline; a larger footprint moves once
/// to a heap buffer (exactly once when the owner calls Reserve first).
/// Copies are deep; moving copies too.
class ReadWriteSet {
 public:
  /// Records stored inside the object before the set spills to the heap.
  /// Four covers every SmallBank type but Amalgamate (Balance,
  /// DepositChecking, TransactSaving and WriteCheck declare 3–4 records),
  /// so those procedures are one allocation. Each further inline record
  /// adds 16 bytes to every procedure, also to the ones that spill anyway
  /// (YCSB's 10RMW declares 20).
  static constexpr uint32_t kInlineRecords = 4;

  ReadWriteSet() = default;
  ReadWriteSet(const ReadWriteSet& other);
  ReadWriteSet& operator=(const ReadWriteSet& other);
  ~ReadWriteSet();

  /// Makes room for `records` records in total, so a procedure that knows
  /// its footprint spills at most once, to a buffer of exactly that size.
  void Reserve(uint32_t records) {
    if (records > capacity_) Reallocate(records);
  }

  void AddRead(TableId table, Key key) {
    if (size() == capacity_) Reallocate(2 * capacity_);
    // Reads precede writes in the buffer: shift the writes up one slot.
    RecordId* slot = data_ + n_reads_;
    for (uint32_t i = n_writes_; i > 0; --i) slot[i] = slot[i - 1];
    *slot = RecordId{table, key};
    ++n_reads_;
  }
  void AddWrite(TableId table, Key key) {
    if (size() == capacity_) Reallocate(2 * capacity_);
    data_[size()] = RecordId{table, key};
    ++n_writes_;
  }
  void AddRmw(TableId table, Key key) {
    AddRead(table, key);
    AddWrite(table, key);
  }

  std::span<const RecordId> reads() const { return {data_, n_reads_}; }
  std::span<const RecordId> writes() const {
    return {data_ + n_reads_, n_writes_};
  }

  /// True when `id` appears in the write set.
  bool IsWritten(const RecordId& id) const;

  /// Checks structural validity: no duplicate element within either set.
  /// O(n log n); called once at submission in debug-heavy paths and by
  /// tests, not per execution.
  Status Validate() const;

  /// Returns the union of both sets in lexicographic (table, key) order,
  /// with AccessMode::kWrite winning for records present in both — the
  /// exact sequence in which the 2PL engine acquires locks.
  std::vector<std::pair<RecordId, AccessMode>> LockOrder() const;

 private:
  uint32_t size() const { return n_reads_ + n_writes_; }
  bool spilled() const { return data_ != inline_; }
  /// Moves the records to a heap buffer of `capacity` (> size()) records.
  void Reallocate(uint32_t capacity);

  RecordId* data_ = inline_;
  uint32_t n_reads_ = 0;
  uint32_t n_writes_ = 0;
  uint32_t capacity_ = kInlineRecords;
  RecordId inline_[kInlineRecords];
};

}  // namespace bohm
