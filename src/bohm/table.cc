#include "bohm/table.h"

namespace bohm {

namespace {

/// A large table's per-partition structure goes on a huge-page block when
/// it fills at least one huge page; smaller ones (a large table split
/// across many CC threads) would waste most of each 2 MiB page.
bool UseHugeBlock(bool large, uint64_t bytes) {
  return large && bytes >= kHugePageBytes;
}

/// A large table's partition takes its declared share of entries as one
/// huge-page block; otherwise entries grow in 64 KiB heap blocks.
Arena MakeEntryArena(bool large, uint64_t expected_entries) {
  const uint64_t bytes = expected_entries * sizeof(BohmIndexEntry);
  if (UseHugeBlock(large, bytes)) return Arena(bytes, /*huge_pages=*/true);
  return Arena(1u << 16);
}

}  // namespace

BohmTable::Partition::Partition(uint64_t buckets, uint64_t expected_entries,
                                bool large)
    : mask(buckets - 1),
      bucket_block(MakeBlock(buckets * sizeof(*chains),
                             UseHugeBlock(large, buckets * sizeof(*chains)))),
      chains(reinterpret_cast<std::atomic<BohmIndexEntry*>*>(
          bucket_block.get())),
      arena(MakeEntryArena(large, expected_entries)) {
  // Single-threaded construction; the table is published to workers only
  // after the constructor returns.
  for (uint64_t i = 0; i < buckets; ++i) {
    new (&chains[i]) std::atomic<BohmIndexEntry*>(nullptr);
  }
}

BohmTable::BohmTable(const TableSpec& spec, uint32_t partitions)
    : spec_(spec), large_(IsLargeTable(spec)) {
  if (partitions == 0) partitions = 1;
  // Size each partition's bucket array for ~1 entry per bucket at the
  // declared capacity.
  uint64_t per_part = spec.capacity / partitions + 1;
  uint64_t buckets = NextPow2(per_part * 2);
  parts_.reserve(partitions);
  for (uint32_t i = 0; i < partitions; ++i) {
    parts_.push_back(std::make_unique<Partition>(buckets, per_part, large_));
  }
}

BohmIndexEntry* BohmTable::Find(uint32_t partition, Key key) const {
  const Partition& p = *parts_[partition];
  // BucketHash, not HashKey: the partition index already consumed
  // HashKey(key) % partitions, and reusing the same hash here pins the
  // low bucket bits within a partition (see BucketHash in common/hash.h).
  uint64_t b = BucketHash(key) & p.mask;
  // acquire pairs with the release publication in GetOrInsert, so a found
  // entry is always fully initialized.
  for (BohmIndexEntry* e = p.chains[b].load(std::memory_order_acquire);
       e != nullptr; e = e->next) {
    if (e->key == key) return e;
  }
  return nullptr;
}

BohmIndexEntry* BohmTable::GetOrInsert(uint32_t partition, Key key,
                                       Version* initial_head,
                                       bool* inserted) {
  Partition& p = *parts_[partition];
  uint64_t b = BucketHash(key) & p.mask;
  // relaxed: this thread is the partition's only writer, so it always
  // sees its own latest chain head; readers get ordering from Find's
  // acquire instead.
  BohmIndexEntry* first = p.chains[b].load(std::memory_order_relaxed);
  for (BohmIndexEntry* e = first; e != nullptr; e = e->next) {
    if (e->key == key) {
      *inserted = false;
      return e;
    }
  }
  auto* e = p.arena.New<BohmIndexEntry>();
  e->key = key;
  e->next = first;
  // The version chain must be complete before the entry becomes
  // reachable: install the head pre-publication...
  // relaxed: e is still thread-private here; the chain release below
  // publishes this store together with the rest of the entry.
  e->head.store(initial_head, std::memory_order_relaxed);
  // ...then publish. The release pairs with Find's acquire, so a reader
  // that sees the entry also sees key, next, and the initialized head.
  p.chains[b].store(e, std::memory_order_release);
  ++p.count;
  *inserted = true;
  return e;
}

BohmDatabase::BohmDatabase(const Catalog& catalog, uint32_t partitions)
    : catalog_(catalog), partitions_(partitions == 0 ? 1 : partitions) {
  tables_.resize(catalog_.MaxTableId());
  for (const TableSpec& spec : catalog_.tables()) {
    tables_[spec.id] = std::make_unique<BohmTable>(spec, partitions_);
  }
}

}  // namespace bohm
