// The Bohm versioned table: a hash index split into physical partitions
// (Section 3.2.2), each owned by one concurrency-control thread.
//
// Ownership discipline is the heart of the design: a record's index entry
// and head pointer are only ever *written* by the single CC thread that
// owns the partition the record hashes to. The hash is static; the
// partition -> thread assignment is the epoch-versioned map in
// bohm/repartition.h (identity when adaptive mode is off), and it only
// changes *between* batches, so within any batch every index mutation is
// uncontended by construction. Execution
// threads *read* entries concurrently ("readers need only spin on
// inconsistent or stale data", Section 3.3.1): entries are published into
// bucket chains with release stores and never removed, so a reader either
// sees a fully-initialized entry or does not see it yet.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "bohm/version.h"
#include "storage/schema.h"

namespace bohm {

/// Declared version footprint at and above which a table counts as large
/// (IsLargeTable). A large table's bucket array and entry arena, and the
/// engine's version arenas, live on huge-page blocks sized from the
/// declared capacity, and the CC and execution stages prefetch each
/// admitted batch's footprint in it. Below the threshold the versions stay
/// mostly cache-resident, so prefetching would only recompute hashes for
/// lines already in L1, and a 2 MiB first-touch fault would cost more
/// set-up time than the table's whole footprint. 8 MiB is four times the
/// per-core L2 of the hosts measured (docs/ARCHITECTURE.md).
inline constexpr uint64_t kLargeFootprintBytes = uint64_t{8} << 20;

/// capacity x (version header + record): the memory one version of every
/// declared record takes.
inline uint64_t VersionFootprintBytes(const TableSpec& spec) {
  return spec.capacity * (sizeof(Version) + spec.record_size);
}

inline bool IsLargeTable(const TableSpec& spec) {
  return VersionFootprintBytes(spec) >= kLargeFootprintBytes;
}

/// Index entry: one per record ever written. The head pointer tracks the
/// newest version (Figure 3's per-record chain).
struct BohmIndexEntry {
  Key key = 0;
  std::atomic<Version*> head{nullptr};
  BohmIndexEntry* next = nullptr;  // bucket chain, set before publication
};

/// One table, internally split into `partitions` independent hash indexes.
class BohmTable {
 public:
  BohmTable(const TableSpec& spec, uint32_t partitions);
  BOHM_DISALLOW_COPY_AND_ASSIGN(BohmTable);

  const TableSpec& spec() const { return spec_; }
  uint32_t partitions() const { return static_cast<uint32_t>(parts_.size()); }
  /// IsLargeTable(spec()): index memory is on huge-page blocks.
  bool large() const { return large_; }

  /// Physical partition of a key (static hash; the owning CC thread is
  /// the current partition map's assignment for this partition).
  uint32_t PartitionOf(Key key) const {
    return static_cast<uint32_t>(HashKey(key) % parts_.size());
  }

  /// Read-only lookup; safe from any thread concurrently with owner
  /// inserts. Returns nullptr when the record has never been written. An
  /// entry returned by Find always has a fully-initialized version chain
  /// (head != nullptr): GetOrInsert installs the first version before the
  /// release-store that publishes the entry.
  BohmIndexEntry* Find(uint32_t partition, Key key) const;

  /// Lookup-or-insert; must only be called by the owning CC thread of
  /// `partition` (or single-threaded during load). When `key` is absent a
  /// new entry is created with `initial_head` (must be non-null and fully
  /// initialized — begin_ts/producer/prev set) installed as the version
  /// chain head *before* the entry is release-published into the bucket
  /// chain, so concurrent Find()s never observe a null or partial chain.
  /// `*inserted` reports whether the entry was created; when false the
  /// caller owns linking its version behind the existing head (the
  /// passed `initial_head` is NOT installed).
  BohmIndexEntry* GetOrInsert(uint32_t partition, Key key,
                              Version* initial_head, bool* inserted);

  /// CC lookahead, stage 1: prefetch the bucket slot `key` hashes to.
  void PrefetchBucket(uint32_t partition, Key key) const {
    const Partition& p = *parts_[partition];
    PrefetchRead(&p.chains[BucketHash(key) & p.mask]);
  }

  /// CC lookahead, stage 2: prefetch the first entry of `key`'s bucket
  /// chain (with ~1 entry per bucket, usually the entry itself). Owner
  /// thread of `partition` only.
  void PrefetchEntry(uint32_t partition, Key key) const {
    const Partition& p = *parts_[partition];
    // relaxed: called by the partition's single writer, which always sees
    // its own latest chain head; the value only picks a prefetch address.
    const BohmIndexEntry* e =
        p.chains[BucketHash(key) & p.mask].load(std::memory_order_relaxed);
    if (e != nullptr) PrefetchRead(e);
  }

  /// CC lookahead, stage 3: prefetch the head version of `key`'s entry
  /// (its entry arrived during stage 2). Owner thread of `partition` only.
  void PrefetchHead(uint32_t partition, Key key) const {
    const BohmIndexEntry* e = Find(partition, key);
    // relaxed: the partition's single writer reads back its own head
    // stores (rule R7); the value only picks a prefetch address.
    if (e != nullptr) PrefetchRead(e->head.load(std::memory_order_relaxed));
  }

  /// Number of entries in a partition (test hook; owner thread only).
  uint64_t EntryCount(uint32_t partition) const {
    return parts_[partition]->count;
  }

  /// Longest bucket chain in a partition (test hook; owner thread only).
  /// Regression observable for the partition/bucket hash aliasing bug:
  /// bucketing by the same hash that chose the partition left only
  /// buckets/partitions slots reachable per partition, so chains grew
  /// ~partitions times longer than the ~1-entry-per-bucket sizing
  /// intends.
  uint64_t MaxChainLength(uint32_t partition) const {
    const Partition& p = *parts_[partition];
    uint64_t longest = 0;
    for (uint64_t b = 0; b <= p.mask; ++b) {
      uint64_t len = 0;
      // relaxed: owner-thread/test-only accounting walk; entry fields
      // were published by the chain's release stores before the walk.
      for (BohmIndexEntry* e = p.chains[b].load(std::memory_order_relaxed);
           e != nullptr; e = e->next) {
        ++len;
      }
      longest = std::max(longest, len);
    }
    return longest;
  }

 private:
  struct Partition {
    Partition(uint64_t buckets, uint64_t expected_entries, bool large);
    uint64_t mask;
    Block bucket_block;  // owns the memory `chains` points into
    std::atomic<BohmIndexEntry*>* chains;
    Arena arena;        // entries; touched only by the owning CC thread
    uint64_t count = 0;
  };

  TableSpec spec_;
  bool large_;
  std::vector<std::unique_ptr<Partition>> parts_;
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
