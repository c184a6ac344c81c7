#include "bohm/table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bohm/version.h"

namespace bohm {
namespace {

TableSpec Spec(uint64_t cap) {
  TableSpec s;
  s.id = 0;
  s.name = std::string("t");  // not = "t": GCC 12 -O3 false -Wrestrict
  s.record_size = 8;
  s.capacity = cap;
  return s;
}

TEST(BohmTableTest, PartitionIsStable) {
  BohmTable t(Spec(1000), 4);
  for (Key k = 0; k < 100; ++k) {
    EXPECT_EQ(t.PartitionOf(k), t.PartitionOf(k));
    EXPECT_LT(t.PartitionOf(k), 4u);
  }
}

TEST(BohmTableTest, PartitionsCoverAllThreads) {
  BohmTable t(Spec(100000), 4);
  std::vector<bool> hit(4, false);
  for (Key k = 0; k < 1000; ++k) hit[t.PartitionOf(k)] = true;
  for (bool h : hit) EXPECT_TRUE(h);
}

TEST(BohmTableTest, EveryKeyHasExactlyOneSlot) {
  for (uint32_t parts : {1u, 2u, 3u, 7u}) {
    constexpr uint64_t kCap = 1001;
    BohmTable t(Spec(kCap), parts);
    std::set<const void*> slots;
    for (Key k = 0; k < kCap; ++k) {
      const std::atomic<Version*>* head = t.Head(k);
      ASSERT_NE(head, nullptr) << k;
      EXPECT_EQ(t.Head(k), head) << k;
      EXPECT_TRUE(slots.insert(head).second)
          << "key " << k << " shares a slot, " << parts << " partitions";
      // Nothing is installed until the record is loaded or written.
      EXPECT_EQ(head->load(std::memory_order_relaxed), nullptr);
    }
    EXPECT_EQ(slots.size(), kCap);
  }
}

TEST(BohmTableTest, EachPartitionsSlotsAreContiguous) {
  constexpr uint32_t kParts = 3;
  BohmTable t(Spec(100), kParts);
  for (uint32_t p = 0; p < kParts; ++p) {
    // Partition p holds keys p, p + P, p + 2P, ... in consecutive slots,
    // starting at key p's.
    const std::atomic<Version*>* first = t.Head(p);
    for (Key k = p, s = 0; k < 100; k += kParts, ++s) {
      EXPECT_EQ(t.Head(k), first + s) << "key " << k;
      EXPECT_EQ(t.PartitionOf(k), p);
    }
  }
}

TEST(BohmTableTest, KeyBeyondCapacityHasNoSlot) {
  BohmTable t(Spec(100), 4);
  EXPECT_NE(t.Head(99), nullptr);
  EXPECT_EQ(t.Head(100), nullptr);
  EXPECT_EQ(t.Head(103), nullptr);  // same partition as key 99
  EXPECT_EQ(t.Head(~Key{0}), nullptr);
  BohmTable empty(Spec(0), 2);
  EXPECT_EQ(empty.Head(0), nullptr);
}

TEST(BohmTableTest, HeadArraysAreLinePairAligned) {
  // Each partition's array starts on a line pair of its own, so the
  // heads of two CC threads never share a line (or an adjacent-line
  // prefetch pair).
  for (uint64_t cap : {5u, 17u, 1000u, 4099u}) {
    for (uint32_t parts : {1u, 2u, 3u, 5u}) {
      BohmTable t(Spec(cap), parts);
      for (uint32_t p = 0; p < parts; ++p) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(t.Head(p)) % kLinePairSize, 0u)
            << "capacity " << cap << ", partition " << p << "/" << parts;
      }
    }
  }
}

TEST(BohmTableTest, LargeTableHeadsAreOnHugePages) {
  TableSpec large = Spec(10'000);
  large.record_size = 1000;  // ~10 MB of versions: past the gate
  ASSERT_TRUE(IsLargeTable(large));
  BohmTable t(large, 2);
  EXPECT_TRUE(t.large());
  // A huge-page block starts on a 2 MiB boundary (AllocHugeBlock).
  EXPECT_EQ(reinterpret_cast<uintptr_t>(t.Head(0)) % kHugePageBytes, 0u);
  for (Key k = 0; k < 10'000; ++k) {
    ASSERT_EQ(t.Head(k)->load(std::memory_order_relaxed), nullptr) << k;
  }
  EXPECT_FALSE(BohmTable(Spec(10'000), 2).large());
}

TEST(BohmTableTest, ConcurrentReadersDuringOwnerInserts) {
  // One owner thread installs first versions into its partition while
  // readers load the same heads: a reader that sees a head must see the
  // version it points to fully written (payload, flags, links), the
  // single-writer/multi-reader discipline of Section 3.3.1. The owner
  // initializes each version and then release-stores the head; readers
  // acquire-load it. The readers chase the owner key by key, inspecting
  // each version the moment it appears, so a head stored before its
  // version is complete is caught within a handful of keys; under TSan
  // the plain payload reads also race unless the release/acquire pair
  // orders them.
  constexpr int64_t kMax = 20000;
  BohmTable t(Spec(kMax), 1);  // single partition: all keys owned by 0
  VersionAllocator alloc;
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> observed{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int64_t k = 0; k < kMax;) {
        const Version* v =
            t.Head(static_cast<Key>(k))->load(std::memory_order_acquire);
        if (v == nullptr) {
          std::this_thread::yield();
          continue;  // not installed yet: retry the same key
        }
        uint64_t payload = 0;
        std::memcpy(&payload, v->data(), sizeof(payload));
        if (payload != static_cast<uint64_t>(k) || !v->ready() ||
            v->prev != nullptr) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        observed.fetch_add(1, std::memory_order_relaxed);
        ++k;
      }
    });
  }

  for (int64_t k = 0; k < kMax; ++k) {
    Version* v = alloc.Alloc(0, 8);
    const auto payload = static_cast<uint64_t>(k);
    std::memcpy(v->data(), &payload, sizeof(payload));
    // relaxed: v is private until the head's release store below.
    v->flags.store(kVersionReady, std::memory_order_relaxed);
    t.Head(static_cast<Key>(k))->store(v, std::memory_order_release);
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u)
      << "a reader saw a head whose version was not yet fully written";
  EXPECT_EQ(observed.load(), 2u * kMax);
}

TEST(VersionAllocatorTest, AllocInitializesFields) {
  VersionAllocator alloc;
  Version* v = alloc.Alloc(0, 8);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->ready());
  EXPECT_FALSE(v->tombstone());
  EXPECT_EQ(v->prev, nullptr);
  EXPECT_EQ(v->producer, nullptr);
}

TEST(VersionAllocatorTest, FreeListRecycles) {
  VersionAllocator alloc;
  Version* v = alloc.Alloc(0, 8);
  v->prev = v;
  v->flags.store(kVersionReady, std::memory_order_relaxed);
  alloc.Free(v, 0);
  Version* v2 = alloc.Alloc(0, 8);
  EXPECT_EQ(v2, v);  // recycled
  EXPECT_EQ(v2->prev, nullptr);  // re-initialized
  EXPECT_FALSE(v2->ready());
  EXPECT_NE(alloc.Alloc(0, 8), v);  // the free list is empty again
}

TEST(VersionAllocatorTest, PerTableFreeLists) {
  VersionAllocator alloc;
  Version* small = alloc.Alloc(0, 8);
  Version* big = alloc.Alloc(1, 1000);
  alloc.Free(small, 0);
  alloc.Free(big, 1);
  // Allocation for table 1 must come from table 1's list (payload size!).
  Version* big2 = alloc.Alloc(1, 1000);
  EXPECT_EQ(big2, big);
  std::memset(big2->data(), 0xEE, 1000);  // fully usable
  EXPECT_EQ(alloc.Alloc(0, 8), small);
}

TEST(VersionAllocatorTest, VersionsOnWholeLines) {
  EXPECT_EQ(VersionBytes(8), kCacheLineSize);
  EXPECT_EQ(VersionBytes(40), kCacheLineSize);
  EXPECT_EQ(VersionBytes(41), 2 * kCacheLineSize);
  EXPECT_EQ(VersionBytes(1000), 1024u);
  VersionAllocator alloc;
  std::set<uintptr_t> lines;
  for (int i = 0; i < 100; ++i) {
    for (auto [table, size] : {std::pair<TableId, uint32_t>{0, 8},
                               std::pair<TableId, uint32_t>{1, 1000}}) {
      const auto addr = reinterpret_cast<uintptr_t>(alloc.Alloc(table, size));
      EXPECT_EQ(addr % kCacheLineSize, 0u) << "record size " << size;
      // No other version starts on any line this one covers.
      for (uintptr_t a = addr; a < addr + VersionBytes(size);
           a += kCacheLineSize) {
        EXPECT_TRUE(lines.insert(a).second) << "record size " << size;
      }
    }
  }
}

TEST(VersionTest, PayloadContiguous) {
  VersionAllocator alloc;
  Version* v = alloc.Alloc(0, 64);
  EXPECT_EQ(v->data(), static_cast<void*>(v + 1));
  std::memset(v->data(), 0x11, 64);
}

TEST(BohmDatabaseTest, TablesConstructed) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(Spec(100)).ok());
  BohmDatabase db(c, 4);
  EXPECT_NE(db.table(0), nullptr);
  EXPECT_EQ(db.table(1), nullptr);
  EXPECT_EQ(db.partitions(), 4u);
  EXPECT_EQ(db.table(0)->partitions(), 4u);
}

}  // namespace
}  // namespace bohm
