#include "txn/rwset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace bohm {
namespace {

// The set is part of every procedure object: growing it (say, more inline
// records) grows every transaction's allocation. 88 bytes on 64-bit: a
// pointer, three 32-bit counts, padding and four 16-byte records.
static_assert(sizeof(void*) != 8 || sizeof(ReadWriteSet) == 88,
              "ReadWriteSet grew: every procedure object grows with it");

/// True when the records sit inside the set object itself.
bool IsInline(const ReadWriteSet& s) {
  const auto data = reinterpret_cast<uintptr_t>(s.reads().data());
  const auto object = reinterpret_cast<uintptr_t>(&s);
  return data >= object && data < object + sizeof(s);
}

std::vector<RecordId> ToVector(std::span<const RecordId> s) {
  return {s.begin(), s.end()};
}

/// 3 reads, 2 writes, 4 more reads, 1 write: crosses the inline -> spill
/// boundary with writes already stored after the reads.
ReadWriteSet Interleaved() {
  ReadWriteSet s;
  for (Key k = 0; k < 3; ++k) s.AddRead(0, k);
  s.AddWrite(1, 100);
  s.AddWrite(1, 101);
  for (Key k = 3; k < 7; ++k) s.AddRead(0, k);
  s.AddWrite(1, 102);
  return s;
}

void ExpectInterleaved(const ReadWriteSet& s) {
  EXPECT_EQ(ToVector(s.reads()),
            (std::vector<RecordId>{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4},
                                   {0, 5}, {0, 6}}));
  EXPECT_EQ(ToVector(s.writes()),
            (std::vector<RecordId>{{1, 100}, {1, 101}, {1, 102}}));
}

TEST(RecordIdTest, LexicographicOrder) {
  EXPECT_LT((RecordId{0, 5}), (RecordId{1, 0}));
  EXPECT_LT((RecordId{1, 2}), (RecordId{1, 3}));
  EXPECT_EQ((RecordId{2, 2}), (RecordId{2, 2}));
}

TEST(RwSetTest, AddAndInspect) {
  ReadWriteSet s;
  s.AddRead(0, 1);
  s.AddWrite(0, 2);
  s.AddRmw(1, 3);
  EXPECT_EQ(s.reads().size(), 2u);   // read(0,1) + rmw-read(1,3)
  EXPECT_EQ(s.writes().size(), 2u);  // write(0,2) + rmw-write(1,3)
  EXPECT_TRUE(s.IsWritten(RecordId{0, 2}));
  EXPECT_TRUE(s.IsWritten(RecordId{1, 3}));
  EXPECT_FALSE(s.IsWritten(RecordId{0, 1}));
}

TEST(RwSetTest, ValidateAcceptsDistinct) {
  ReadWriteSet s;
  s.AddRead(0, 1);
  s.AddRead(0, 2);
  s.AddWrite(0, 1);  // same record read+written is an RMW, allowed
  EXPECT_TRUE(s.Validate().ok());
}

TEST(RwSetTest, ValidateRejectsDuplicateReads) {
  ReadWriteSet s;
  s.AddRead(0, 1);
  s.AddRead(0, 1);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(RwSetTest, ValidateRejectsDuplicateWrites) {
  ReadWriteSet s;
  s.AddWrite(2, 9);
  s.AddWrite(2, 9);
  EXPECT_TRUE(s.Validate().IsInvalidArgument());
}

TEST(RwSetTest, LockOrderSortedLexicographically) {
  ReadWriteSet s;
  s.AddWrite(1, 5);
  s.AddRead(0, 9);
  s.AddRead(1, 2);
  auto order = s.LockOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].first, (RecordId{0, 9}));
  EXPECT_EQ(order[1].first, (RecordId{1, 2}));
  EXPECT_EQ(order[2].first, (RecordId{1, 5}));
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1].first, order[i].first);
  }
}

TEST(RwSetTest, LockOrderCollapsesRmwToExclusive) {
  ReadWriteSet s;
  s.AddRmw(0, 7);
  s.AddRead(0, 3);
  auto order = s.LockOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, (RecordId{0, 3}));
  EXPECT_EQ(order[0].second, AccessMode::kRead);
  EXPECT_EQ(order[1].first, (RecordId{0, 7}));
  EXPECT_EQ(order[1].second, AccessMode::kWrite);
}

TEST(RwSetTest, LockOrderEmptySet) {
  ReadWriteSet s;
  EXPECT_TRUE(s.LockOrder().empty());
}

TEST(RwSetTest, StaysInlineUpToKInlineRecords) {
  ReadWriteSet s;
  s.AddRead(0, 1);
  s.AddRmw(0, 2);
  s.AddWrite(0, 3);
  EXPECT_TRUE(IsInline(s));
  s.AddRead(0, 4);
  EXPECT_FALSE(IsInline(s));
  EXPECT_EQ(ToVector(s.reads()),
            (std::vector<RecordId>{{0, 1}, {0, 2}, {0, 4}}));
  EXPECT_EQ(ToVector(s.writes()), (std::vector<RecordId>{{0, 2}, {0, 3}}));
}

TEST(RwSetTest, InterleavedAddsKeepDeclarationOrderAcrossSpill) {
  ReadWriteSet s = Interleaved();
  EXPECT_FALSE(IsInline(s));
  ExpectInterleaved(s);
}

TEST(RwSetTest, CopyConstructionIsDeep) {
  ReadWriteSet small;
  small.AddRmw(2, 7);
  ReadWriteSet small_copy(small);
  EXPECT_TRUE(IsInline(small_copy));
  EXPECT_EQ(ToVector(small_copy.reads()), ToVector(small.reads()));
  EXPECT_EQ(ToVector(small_copy.writes()), ToVector(small.writes()));
  EXPECT_NE(small_copy.reads().data(), small.reads().data());

  ReadWriteSet big = Interleaved();
  ReadWriteSet big_copy(big);
  EXPECT_FALSE(IsInline(big_copy));
  EXPECT_NE(big_copy.reads().data(), big.reads().data());
  big.AddWrite(1, 200);  // the copy owns its records
  ExpectInterleaved(big_copy);
}

TEST(RwSetTest, CopyAssignmentIsDeep) {
  const ReadWriteSet big = Interleaved();
  ReadWriteSet small;
  small.AddRead(3, 3);

  ReadWriteSet a;  // inline <- spilled
  a.AddWrite(9, 9);
  a = big;
  ExpectInterleaved(a);
  EXPECT_NE(a.reads().data(), big.reads().data());

  a = small;  // spilled <- inline: keeps its buffer, drops the old records
  EXPECT_EQ(ToVector(a.reads()), (std::vector<RecordId>{{3, 3}}));
  EXPECT_TRUE(a.writes().empty());

  ReadWriteSet b = Interleaved();  // spilled <- spilled
  b = big;
  ExpectInterleaved(b);

  ReadWriteSet c;  // inline <- inline
  c.AddRead(5, 5);
  c.AddRead(5, 6);
  c = small;
  EXPECT_TRUE(IsInline(c));
  EXPECT_EQ(ToVector(c.reads()), (std::vector<RecordId>{{3, 3}}));
}

TEST(RwSetTest, SelfAssignmentKeepsTheRecords) {
  ReadWriteSet big = Interleaved();
  ReadWriteSet& alias = big;
  big = alias;
  ExpectInterleaved(big);

  ReadWriteSet small;
  small.AddRmw(4, 4);
  ReadWriteSet& small_alias = small;
  small = small_alias;
  EXPECT_EQ(ToVector(small.reads()), (std::vector<RecordId>{{4, 4}}));
  EXPECT_EQ(ToVector(small.writes()), (std::vector<RecordId>{{4, 4}}));
}

TEST(RwSetTest, ReserveBeforeFirstAddSpillsOnce) {
  ReadWriteSet s;
  s.Reserve(10);
  EXPECT_FALSE(IsInline(s));
  const RecordId* buffer = s.reads().data();
  ReadWriteSet expected = Interleaved();
  s = expected;
  EXPECT_EQ(s.reads().data(), buffer);  // 10 records fit: no reallocation
  ExpectInterleaved(s);
}

TEST(RwSetTest, ReserveAfterAddsKeepsTheRecords) {
  ReadWriteSet s;
  s.AddRead(0, 0);
  s.AddWrite(1, 100);
  s.Reserve(2);  // fits inline already: no-op
  EXPECT_TRUE(IsInline(s));
  s.Reserve(10);
  EXPECT_FALSE(IsInline(s));
  const RecordId* buffer = s.reads().data();
  s.AddRead(0, 1);
  s.AddRead(0, 2);
  s.AddWrite(1, 101);
  for (Key k = 3; k < 7; ++k) s.AddRead(0, k);
  s.AddWrite(1, 102);
  EXPECT_EQ(s.reads().data(), buffer);
  ExpectInterleaved(s);
}

TEST(RwSetTest, SpilledSetValidatesAndOrdersLocks) {
  ReadWriteSet s = Interleaved();
  s.AddRead(1, 101);  // RMW of a written record
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_TRUE(s.IsWritten(RecordId{1, 100}));
  EXPECT_TRUE(s.IsWritten(RecordId{1, 102}));
  EXPECT_FALSE(s.IsWritten(RecordId{0, 3}));

  auto order = s.LockOrder();
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(order[i].first, (RecordId{0, i}));
    EXPECT_EQ(order[i].second, AccessMode::kRead);
  }
  for (size_t i = 7; i < 10; ++i) {
    EXPECT_EQ(order[i].first, (RecordId{1, 100 + (i - 7)}));
    EXPECT_EQ(order[i].second, AccessMode::kWrite);
  }

  ReadWriteSet dup_read = Interleaved();
  dup_read.AddRead(0, 5);
  EXPECT_TRUE(dup_read.Validate().IsInvalidArgument());
  ReadWriteSet dup_write = Interleaved();
  dup_write.AddWrite(1, 101);
  EXPECT_TRUE(dup_write.Validate().IsInvalidArgument());
}

TEST(RwSetTest, HashDistinguishesTableAndKey) {
  std::hash<RecordId> h;
  EXPECT_NE(h(RecordId{0, 1}), h(RecordId{1, 0}));
}

}  // namespace
}  // namespace bohm
