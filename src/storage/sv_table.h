// Single-version storage used by the Silo-OCC and 2PL baselines: one
// fixed-size array of record slots per table ("a simple fixed-size array
// index to access records", Section 4), so key k is slot k and keys are
// 0..capacity-1.
//
// Each slot carries an engine-chosen header in front of its payload. Silo
// uses a 64-bit TID word (lock bit | epoch | sequence) for its
// seqlock-style commit protocol; 2PL keeps the record's reader-writer
// lock there, so the lock shares the record's cache line, as in Very
// Lightweight Locking (Ren, Thomson and Abadi, PVLDB 2012).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

#include "common/macros.h"
#include "common/status.h"
#include "storage/schema.h"

namespace bohm {

/// One record: header + presence flag, then the payload bytes, laid out
/// contiguously. The alignment keeps the payload 8-byte aligned for any
/// header (the word-wise seqlock copies need it).
template <typename Header>
struct alignas(8) SVSlot {
  Header header{};
  /// Set by Insert in the single-threaded load phase; read-only after.
  bool present = false;

  void* payload() { return this + 1; }
  const void* payload() const { return this + 1; }
};

/// Array-indexed fixed-capacity single-version table. Records are inserted
/// during a single-threaded load phase; steady-state access is lookup-only
/// (the paper's workloads do not insert), so lookups need no latching.
/// Every slot is constructed, absent, with the table.
template <typename Header>
class SVTable {
 public:
  using Slot = SVSlot<Header>;

  explicit SVTable(const TableSpec& spec)
      : spec_(spec),
        slot_bytes_((sizeof(Slot) + spec.record_size + alignof(Slot) - 1) &
                    ~(alignof(Slot) - 1)),
        capacity_(spec.capacity == 0 ? 1 : spec.capacity),
        slab_(std::make_unique<char[]>(slot_bytes_ * capacity_)) {
    for (Key k = 0; k < capacity_; ++k) new (SlotAt(k)) Slot();
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(SVTable);

  const TableSpec& spec() const { return spec_; }
  uint64_t capacity() const { return capacity_; }

  /// Inserts a record with the given initial payload (nullptr zero-fills).
  /// Single-threaded load phase only. Fails with InvalidArgument on a key
  /// at or past the capacity and on a duplicate key.
  Status Insert(Key key, const void* initial) {
    if (key >= capacity_) {
      return Status::InvalidArgument("key beyond table capacity: " +
                                     spec_.name);
    }
    Slot* slot = SlotAt(key);
    if (slot->present) return Status::InvalidArgument("duplicate key");
    // plain-copy: Insert runs in the single-threaded load phase, before
    // any worker (and so any seqlock reader) can reach this slot.
    if (initial != nullptr) {
      std::memcpy(slot->payload(), initial, spec_.record_size);
    } else {
      std::memset(slot->payload(), 0, spec_.record_size);
    }
    slot->present = true;
    return Status::OK();
  }

  /// Returns the slot for `key`, or nullptr when the key was never loaded
  /// or is past the capacity. Safe to call concurrently with other lookups
  /// and with payload mutation.
  Slot* Lookup(Key key) const {
    if (key >= capacity_) return nullptr;
    Slot* slot = SlotAt(key);
    return slot->present ? slot : nullptr;
  }

 private:
  Slot* SlotAt(Key key) const {
    return reinterpret_cast<Slot*>(slab_.get() + key * slot_bytes_);
  }

  TableSpec spec_;
  size_t slot_bytes_;
  uint64_t capacity_;
  std::unique_ptr<char[]> slab_;
};

}  // namespace bohm
