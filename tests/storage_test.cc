#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/spin.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/sv_table.h"
#include "txn/rwset.h"

namespace bohm {
namespace {

TableSpec Spec(TableId id, uint32_t size, uint64_t cap) {
  TableSpec s;
  s.id = id;
  // Not "t" + to_string(id): GCC 12 -O3 false -Wrestrict.
  s.name = std::string("t").append(std::to_string(id));
  s.record_size = size;
  s.capacity = cap;
  return s;
}

// Silo's instantiation: a 64-bit TID word in front of each payload.
using TidTable = SVTable<std::atomic<uint64_t>>;

TEST(CatalogTest, AddAndFind) {
  Catalog c;
  EXPECT_TRUE(c.AddTable(Spec(0, 8, 10)).ok());
  EXPECT_TRUE(c.AddTable(Spec(2, 16, 20)).ok());
  ASSERT_NE(c.Find(0), nullptr);
  EXPECT_EQ(c.Find(0)->record_size, 8u);
  EXPECT_EQ(c.Find(1), nullptr);
  EXPECT_EQ(c.MaxTableId(), 3u);
}

TEST(CatalogTest, RejectsDuplicateId) {
  Catalog c;
  EXPECT_TRUE(c.AddTable(Spec(0, 8, 10)).ok());
  EXPECT_TRUE(c.AddTable(Spec(0, 8, 10)).IsInvalidArgument());
}

TEST(CatalogTest, RejectsZeroRecordSize) {
  Catalog c;
  EXPECT_TRUE(c.AddTable(Spec(0, 0, 10)).IsInvalidArgument());
}

TEST(SVTableTest, InsertAndLookup) {
  TidTable t(Spec(0, 8, 100));
  uint64_t v = 42;
  EXPECT_TRUE(t.Insert(7, &v).ok());
  TidTable::Slot* slot = t.Lookup(7);
  ASSERT_NE(slot, nullptr);
  uint64_t out;
  std::memcpy(&out, slot->payload(), 8);
  EXPECT_EQ(out, 42u);
}

TEST(SVTableTest, MissingKeyReturnsNull) {
  TidTable t(Spec(0, 8, 100));
  EXPECT_EQ(t.Lookup(999), nullptr);
}

TEST(SVTableTest, NullPayloadZeroFills) {
  TidTable t(Spec(0, 16, 4));
  EXPECT_TRUE(t.Insert(1, nullptr).ok());
  const char* p = static_cast<const char*>(t.Lookup(1)->payload());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(p[i], 0);
}

TEST(SVTableTest, DuplicateInsertRejected) {
  TidTable t(Spec(0, 8, 100));
  uint64_t v = 1;
  EXPECT_TRUE(t.Insert(5, &v).ok());
  EXPECT_TRUE(t.Insert(5, &v).IsInvalidArgument());
}

TEST(SVTableTest, CapacityEnforced) {
  TidTable t(Spec(0, 8, 2));
  uint64_t v = 0;
  EXPECT_TRUE(t.Insert(0, &v).ok());
  EXPECT_TRUE(t.Insert(1, &v).ok());
  EXPECT_TRUE(t.Insert(2, &v).IsInvalidArgument());
}

TEST(SVTableTest, FullCapacityAllRetrievable) {
  constexpr uint64_t kN = 10000;
  TidTable t(Spec(0, 8, kN));
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(t.Insert(k, &k).ok());
  }
  for (uint64_t k = 0; k < kN; ++k) {
    TidTable::Slot* slot = t.Lookup(k);
    ASSERT_NE(slot, nullptr);
    uint64_t out;
    std::memcpy(&out, slot->payload(), 8);
    EXPECT_EQ(out, k);
  }
}

TEST(SVTableTest, HeaderStartsZero) {
  TidTable t(Spec(0, 8, 4));
  uint64_t v = 9;
  ASSERT_TRUE(t.Insert(3, &v).ok());
  EXPECT_EQ(t.Lookup(3)->header.load(), 0u);
}

TEST(SVTableTest, LargeRecords) {
  TidTable t(Spec(0, 1000, 16));
  std::vector<char> payload(1000, 0x3C);
  ASSERT_TRUE(t.Insert(0, payload.data()).ok());
  const char* p = static_cast<const char*>(t.Lookup(0)->payload());
  EXPECT_EQ(std::memcmp(p, payload.data(), 1000), 0);
}

TEST(SVTableTest, NeverLoadedKeyAbsent) {
  TidTable t(Spec(0, 8, 4));
  uint64_t v = 1;
  ASSERT_TRUE(t.Insert(1, &v).ok());
  EXPECT_EQ(t.Lookup(0), nullptr);
  EXPECT_EQ(t.Lookup(2), nullptr);
  EXPECT_NE(t.Lookup(1), nullptr);
}

TEST(SVTableTest, LockHeaderKeepsPayloadAligned) {
  // 2PL's instantiation: a 4-byte lock word in front of each payload.
  SVTable<RWSpinLock> t(Spec(0, 12, 4));
  for (Key k = 0; k < 4; ++k) ASSERT_TRUE(t.Insert(k, nullptr).ok());
  for (Key k = 0; k < 4; ++k) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.Lookup(k)->payload()) % 8, 0u);
  }
}

TEST(SVDatabaseTest, TablesByIdWithGaps) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(Spec(0, 8, 4)).ok());
  ASSERT_TRUE(c.AddTable(Spec(3, 8, 4)).ok());
  Database<TidTable> db(c);
  EXPECT_NE(db.table(0), nullptr);
  EXPECT_EQ(db.table(1), nullptr);
  EXPECT_EQ(db.table(2), nullptr);
  EXPECT_NE(db.table(3), nullptr);
  EXPECT_EQ(db.table(99), nullptr);
}

TEST(SVDatabaseTest, CheckFootprintRefusesUnknownTableAndKeyPastCapacity) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(Spec(0, 8, 4)).ok());
  Database<TidTable> db(c);
  ReadWriteSet ok;
  ok.AddRead(0, 0);
  ok.AddRmw(0, 3);
  EXPECT_TRUE(db.CheckFootprint(ok).ok());
  ReadWriteSet far_read;
  far_read.AddRead(0, 4);
  EXPECT_TRUE(db.CheckFootprint(far_read).IsInvalidArgument());
  ReadWriteSet far_write;
  far_write.AddWrite(0, 4);
  EXPECT_TRUE(db.CheckFootprint(far_write).IsInvalidArgument());
  ReadWriteSet unknown;
  unknown.AddWrite(1, 0);
  EXPECT_TRUE(db.CheckFootprint(unknown).IsInvalidArgument());
}

}  // namespace
}  // namespace bohm
