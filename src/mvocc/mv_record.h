// Version storage for the Hekaton-style engines (optimistic Hekaton and
// Snapshot Isolation share one codebase, as in the paper's evaluation,
// Section 4).
//
// Following Larson et al. [21], a version's Begin/End fields transiently
// hold a *transaction reference* (tagged pointer) while the owning
// transaction is in flight, and are rewritten to plain timestamps during
// commit postprocessing. Mirroring the paper's configuration, records are
// reached through a simple fixed-size array index for dense-keyed tables
// and versions are never garbage collected.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "storage/schema.h"

namespace bohm {

class MVTxn;

/// Begin/End field encoding: either a timestamp in [0, kMVInfinity], or a
/// tagged MVTxn pointer with bit 63 set.
inline constexpr uint64_t kMVTxnFlag = 1ull << 63;
inline constexpr uint64_t kMVInfinity = (1ull << 62) - 1;
/// Begin value of an aborted (never-visible) version.
inline constexpr uint64_t kMVAbortedBegin = kMVInfinity;

inline bool MVIsTxn(uint64_t field) { return (field & kMVTxnFlag) != 0; }
inline MVTxn* MVTxnPtr(uint64_t field) {
  return reinterpret_cast<MVTxn*>(field & ~kMVTxnFlag);
}
inline uint64_t MVTagTxn(MVTxn* txn) {
  return reinterpret_cast<uint64_t>(txn) | kMVTxnFlag;
}

struct MVVersion {
  std::atomic<uint64_t> begin{kMVAbortedBegin};
  std::atomic<uint64_t> end{kMVInfinity};
  /// Older version (versions are pushed at the head of the chain).
  MVVersion* next = nullptr;

  void* data() { return this + 1; }
  const void* data() const { return this + 1; }
};

/// One record: the head of its version chain (newest first).
struct MVRecordSlot {
  std::atomic<MVVersion*> head{nullptr};
};

/// Array-indexed multi-version table ("a simple fixed-size array index to
/// access records", Section 4). Requires dense keys 0..capacity-1, which
/// all of the paper's workloads satisfy.
class MVTable {
 public:
  explicit MVTable(const TableSpec& spec)
      : spec_(spec),
        capacity_(spec.capacity == 0 ? 1 : spec.capacity),
        slots_(std::make_unique<MVRecordSlot[]>(capacity_)) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(MVTable);

  const TableSpec& spec() const { return spec_; }

  MVRecordSlot* Slot(Key key) const {
    return key < capacity_ ? &slots_[key] : nullptr;
  }
  uint64_t capacity() const { return capacity_; }

 private:
  TableSpec spec_;
  uint64_t capacity_;
  std::unique_ptr<MVRecordSlot[]> slots_;
};

}  // namespace bohm
