// Heap allocations per procedure. The declared footprint lives inside the
// procedure object (txn/rwset.h), so a SmallBank procedure of up to
// ReadWriteSet::kInlineRecords records is one heap block and a larger
// footprint adds exactly one spill buffer. This binary replaces the
// global operator new/delete with counting versions to pin those counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace {

// Only the test thread's allocations inside a counting window are counted.
thread_local bool g_counting = false;
thread_local int64_t g_allocs = 0;
thread_local int64_t g_frees = 0;
// Counted pointers are stored here, so the compiler may not elide a
// new/delete pair whose pointer never escapes.
const void* volatile g_sink = nullptr;

// Out of line, so the compiler cannot pair a free() with the operator new
// that produced its pointer and warn about a mismatch.
[[gnu::noinline]] void* CountedAlloc(std::size_t bytes) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void CountedFree(void* p) noexcept {
  if (p != nullptr && g_counting) ++g_frees;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new[](std::size_t bytes) { return CountedAlloc(bytes); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace bohm {
namespace {

struct Counts {
  int64_t allocs = 0;
  int64_t frees = 0;
};

/// Allocations and frees made by `fn` on this thread.
template <typename Fn>
Counts Count(Fn&& fn) {
  const int64_t allocs = g_allocs;
  const int64_t frees = g_frees;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_allocs - allocs, g_frees - frees};
}

/// Constructs a procedure with `make`, then destroys it, and checks the
/// allocations of each step.
template <typename Make>
void ExpectBlocks(const char* name, int64_t blocks, Make&& make) {
  ProcedurePtr proc;
  const Counts built = Count([&] {
    proc = make();
    g_sink = proc.get();
  });
  EXPECT_EQ(built.allocs, blocks) << name << " construction";
  EXPECT_EQ(built.frees, 0) << name << " construction";
  const Counts destroyed = Count([&] { proc.reset(); });
  EXPECT_EQ(destroyed.allocs, 0) << name << " destruction";
  EXPECT_EQ(destroyed.frees, blocks) << name << " destruction";
}

TEST(ProcedureAllocTest, CountingHooksSeeAllocations) {
  const Counts c = Count([] {
    int* p = new int(7);
    g_sink = p;
    delete p;
  });
  EXPECT_EQ(c.allocs, 1);
  EXPECT_EQ(c.frees, 1);
}

TEST(ProcedureAllocTest, SmallSmallBankTypesAreOneBlock) {
  ExpectBlocks("Balance", 1,
               [] { return std::make_unique<BalanceProcedure>(3, 0); });
  ExpectBlocks("DepositChecking", 1, [] {
    return std::make_unique<DepositCheckingProcedure>(3, 5, 0);
  });
  ExpectBlocks("TransactSaving", 1, [] {
    return std::make_unique<TransactSavingProcedure>(3, 5, 0);
  });
  ExpectBlocks("WriteCheck", 1, [] {
    return std::make_unique<WriteCheckProcedure>(3, 5, 0);
  });
}

TEST(ProcedureAllocTest, AmalgamateSpillsOnce) {
  ExpectBlocks("Amalgamate", 2, [] {
    return std::make_unique<AmalgamateProcedure>(3, 4, 0);
  });
}

TEST(ProcedureAllocTest, YcsbRmwSpillsOnce) {
  const std::vector<Key> keys = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  ExpectBlocks("YcsbRmw", 2, [&] {
    return std::make_unique<YcsbRmwProcedure>(keys, 1000);
  });
}

TEST(ProcedureAllocTest, CopyingAnInlineFootprintAllocatesNothing) {
  const WriteCheckProcedure proc(3, 5, 0);
  const Counts c = Count([&] {
    ReadWriteSet copy = proc.rwset();
    g_sink = copy.reads().data();
    EXPECT_EQ(copy.reads().size(), 3u);
  });
  EXPECT_EQ(c.allocs, 0);
  EXPECT_EQ(c.frees, 0);
}

}  // namespace
}  // namespace bohm
