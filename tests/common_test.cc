#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/rand.h"
#include "common/stable_buffer.h"
#include "common/stats.h"

namespace bohm {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZeroSeedStillWorks) {
  Rng rng(0);
  uint64_t v = rng.Next();
  EXPECT_NE(v, 0u);
}

// ---------- Hash ----------

TEST(HashTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

// ---------- Arena ----------

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena(256);
  char* a = static_cast<char*>(arena.Allocate(100));
  char* b = static_cast<char*>(arena.Allocate(100));
  std::memset(a, 0xAA, 100);
  std::memset(b, 0xBB, 100);
  EXPECT_EQ(static_cast<unsigned char>(a[99]), 0xAA);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xBB);
}

TEST(ArenaTest, AlignmentHonored) {
  Arena arena;
  (void)arena.Allocate(1);
  void* p = arena.Allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

TEST(ArenaTest, OversizedAllocationGetsOwnBlock) {
  Arena arena(128);
  void* p = arena.Allocate(4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 4096);  // must be fully usable
  EXPECT_GE(arena.allocated_bytes(), 4096u);
}

TEST(ArenaTest, ResetReclaims) {
  Arena arena(128);
  for (int i = 0; i < 100; ++i) (void)arena.Allocate(64);
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  void* p = arena.Allocate(16);
  EXPECT_NE(p, nullptr);
}

TEST(ArenaTest, HugeBlocksAreAlignedAndUsableEndToEnd) {
  // 3 MiB rounds up to two whole huge pages per block.
  Arena arena(3u << 20, /*huge_pages=*/true);
  EXPECT_TRUE(arena.huge_pages());
  EXPECT_EQ(arena.block_bytes(), 2 * kHugePageBytes);
  for (int block = 0; block < 2; ++block) {
    char* p = static_cast<char*>(arena.Allocate(arena.block_bytes()));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kHugePageBytes, 0u);
    std::memset(p, 0x5A, arena.block_bytes());  // every byte is writable
    EXPECT_EQ(static_cast<unsigned char>(p[arena.block_bytes() - 1]), 0x5A);
  }
  EXPECT_EQ(arena.block_count(), 2u);
  // An oversized request gets its own block, also huge-page aligned.
  char* big = static_cast<char*>(arena.Allocate(5u << 20));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % kHugePageBytes, 0u);
  std::memset(big, 0x33, 5u << 20);
  arena.Reset();
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_NE(arena.Allocate(64), nullptr);
}

TEST(ArenaTest, DefaultBlocksStaySmall) {
  Arena arena;
  EXPECT_FALSE(arena.huge_pages());
  EXPECT_EQ(arena.block_bytes(), Arena::kDefaultBlockBytes);
}

TEST(ArenaTest, NewConstructsInPlace) {
  struct Pod {
    int x;
    int y;
  };
  Arena arena;
  Pod* p = arena.New<Pod>();
  p->x = 1;
  p->y = 2;
  EXPECT_EQ(p->x + p->y, 3);
}

// ---------- StableBuffer ----------

TEST(StableBufferTest, PointersSurviveGrowth) {
  StableBuffer buf(64);
  char* first = static_cast<char*>(buf.Allocate(32));
  std::memset(first, 0x5A, 32);
  for (int i = 0; i < 100; ++i) (void)buf.Allocate(48);
  EXPECT_EQ(static_cast<unsigned char>(first[31]), 0x5A);
}

TEST(StableBufferTest, ResetReusesChunks) {
  StableBuffer buf(64);
  for (int i = 0; i < 10; ++i) (void)buf.Allocate(40);
  size_t chunks = buf.chunk_count();
  buf.Reset();
  for (int i = 0; i < 10; ++i) (void)buf.Allocate(40);
  EXPECT_EQ(buf.chunk_count(), chunks);
}

TEST(StableBufferTest, LargeAllocation) {
  StableBuffer buf(64);
  void* p = buf.Allocate(10000);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 10000);
}

TEST(StableBufferTest, AllocationsAligned) {
  StableBuffer buf;
  (void)buf.Allocate(3);
  void* p = buf.Allocate(8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
}

// ---------- Stats ----------

TEST(StatsTest, FoldSumsSlices) {
  StatsRegistry reg(3);
  reg.Slice(0).commits.Inc(5);
  reg.Slice(1).commits.Inc(7);
  reg.Slice(2).cc_aborts.Inc(2);
  StatsSnapshot s = reg.Fold();
  EXPECT_EQ(s.commits, 12u);
  EXPECT_EQ(s.cc_aborts, 2u);
}

TEST(StatsTest, AbortRate) {
  StatsSnapshot s;
  s.commits = 75;
  s.cc_aborts = 25;
  EXPECT_DOUBLE_EQ(s.AbortRate(), 0.25);
}

TEST(StatsTest, AbortRateZeroAttempts) {
  StatsSnapshot s;
  EXPECT_DOUBLE_EQ(s.AbortRate(), 0.0);
}

TEST(StatsTest, SubtractionCoversEveryField) {
  // A field added to StatsSnapshot changes its size: add it to operator-
  // and to kCounters below.
  static_assert(sizeof(StatsSnapshot) ==
                sizeof(Histogram) + 15 * sizeof(uint64_t));
  constexpr uint64_t StatsSnapshot::*kCounters[] = {
      &StatsSnapshot::commits,       &StatsSnapshot::cc_aborts,
      &StatsSnapshot::logic_aborts,  &StatsSnapshot::retries,
      &StatsSnapshot::reads,         &StatsSnapshot::writes,
      &StatsSnapshot::seq_stall_ns,  &StatsSnapshot::seq_idle_ns,
      &StatsSnapshot::cc_stall_ns,   &StatsSnapshot::exec_stall_ns,
      &StatsSnapshot::log_stall_ns,  &StatsSnapshot::log_bytes,
      &StatsSnapshot::log_records,   &StatsSnapshot::log_fsyncs,
      &StatsSnapshot::gc_freed};
  StatsSnapshot earlier;
  StatsSnapshot later;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    earlier.*kCounters[i] = 1000 + i;
    later.*kCounters[i] = 1000 + i + 7 * (i + 1);  // distinct per field
  }
  for (uint64_t v : {1, 5}) {
    earlier.latency_us.Record(v);
    later.latency_us.Record(v);
  }
  for (uint64_t v : {5, 300, 300}) later.latency_us.Record(v);

  const StatsSnapshot d = later - earlier;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    EXPECT_EQ(d.*kCounters[i], 7 * (i + 1)) << "counter " << i;
  }
  EXPECT_EQ(d.latency_us.count(), 3u);
  EXPECT_DOUBLE_EQ(d.latency_us.Mean(), 605.0 / 3);
  EXPECT_EQ(d.latency_us.Percentile(0.0), 5u);
  EXPECT_EQ(d.latency_us.Percentile(1.0), 300u);
}

}  // namespace
}  // namespace bohm
