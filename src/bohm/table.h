// The Bohm versioned table: the "simple fixed-size array index to access
// records" the paper's evaluation gives every system (Section 4), split
// into physical partitions (Section 3.2.2), each owned by one
// concurrency-control thread.
//
// A table's keys are 0..capacity-1 (TableSpec::capacity). With P
// partitions, key k's version-chain head sits at slot k / P of partition
// k % P: no hash and no chain, one load per lookup. A key at or past the
// capacity has no slot, and the engine refuses it (Load, Submit,
// ReadLatest).
//
// Ownership discipline is the heart of the design: a record's head is
// only ever *written* by the single CC thread that owns its partition
// (partition i belongs to CC thread i for the engine's lifetime), so
// every index mutation is uncontended by construction. Each partition's
// heads are contiguous and start on a line pair of their own, so no two
// CC threads write one cache line. A head is written with a release store
// after the version it points to is fully initialized, so a reader that
// acquires a non-null head sees a complete version ("readers need only
// spin on inconsistent or stale data", Section 3.3.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "bohm/version.h"
#include "storage/schema.h"

namespace bohm {

/// Declared version footprint at and above which a table counts as large
/// (IsLargeTable). It decides memory placement only: a large table's head
/// arrays, and the engine's version arenas, live on huge-page blocks
/// sized from the declared capacity. Below the threshold a 2 MiB
/// first-touch fault would cost more set-up time than the table's whole
/// footprint. The CC and execution stages prefetch every catalog's
/// footprint alike. 8 MiB is four times the per-core L2 of the hosts
/// measured (docs/ARCHITECTURE.md).
inline constexpr uint64_t kLargeFootprintBytes = uint64_t{8} << 20;

/// capacity x VersionBytes(record): the memory one version of every
/// declared record takes.
inline uint64_t VersionFootprintBytes(const TableSpec& spec) {
  return spec.capacity * VersionBytes(spec.record_size);
}

inline bool IsLargeTable(const TableSpec& spec) {
  return VersionFootprintBytes(spec) >= kLargeFootprintBytes;
}

/// One table: a fixed-size array of version-chain heads (the newest
/// version of each record, Figure 3), one contiguous run per partition.
class BohmTable {
 public:
  BohmTable(const TableSpec& spec, uint32_t partitions);
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmTable);

  const TableSpec& spec() const { return spec_; }
  uint32_t partitions() const { return partitions_; }
  /// IsLargeTable(spec()): the head arrays are on a huge-page block.
  bool large() const { return large_; }

  /// Physical partition of a key, which is also the id of the CC thread
  /// that owns it.
  uint32_t PartitionOf(Key key) const {
    return static_cast<uint32_t>(key % partitions_);
  }

  /// The head slot of `key`, nullptr when key >= capacity. The slot holds
  /// nullptr until the record's first version is installed. Only the CC
  /// thread that owns PartitionOf(key) (or the loader, before Start)
  /// stores to it, with release; any thread may load it, with acquire.
  /// Key p < partitions() has the first slot of partition p's array.
  std::atomic<Version*>* Head(Key key) const {
    if (key >= spec_.capacity) return nullptr;
    return &heads_[(key % partitions_) * stride_ + key / partitions_];
  }

 private:
  TableSpec spec_;
  uint32_t partitions_;
  bool large_;
  /// Slots per partition: ceil(capacity / partitions), rounded up to a
  /// whole line pair so the next partition's array starts on its own.
  uint64_t stride_;
  Block block_;  // owns the memory `heads_` points into
  std::atomic<Version*>* heads_;
};

/// All Bohm tables of a database instance.
class BohmDatabase {
 public:
  BohmDatabase(const Catalog& catalog, uint32_t partitions);
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmDatabase);

  BohmTable* table(TableId id) const {
    return id < tables_.size() ? tables_[id].get() : nullptr;
  }
  const Catalog& catalog() const { return catalog_; }
  uint32_t partitions() const { return partitions_; }

 private:
  Catalog catalog_;
  uint32_t partitions_;
  std::vector<std::unique_ptr<BohmTable>> tables_;
};

}  // namespace bohm
