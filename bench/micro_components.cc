// Component microbenchmarks (google-benchmark): the primitive costs the
// paper's arguments rest on — above all, the contended global timestamp
// counter (Section 2.1) versus Bohm's uncontended log append, and version
// chain traversal versus annotated reads (Section 3.2.3).
#include <benchmark/benchmark.h>

#include <atomic>

#include "bohm/table.h"
#include "bohm/version.h"
#include "common/arena.h"
#include "common/queue.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "txn/rwset.h"

namespace bohm {
namespace {

// The pattern every conventional multi-version engine uses for timestamps:
// a single fetch-and-increment word shared by all threads. Run with
// ->Threads(N) to see the cache-line ping-pong the paper blames.
std::atomic<uint64_t> g_clock{0};
void BM_GlobalCounterFetchAdd(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g_clock.fetch_add(1, std::memory_order_acq_rel));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GlobalCounterFetchAdd)->Threads(1)->Threads(2)->Threads(4);

// Bohm's timestamp assignment: a plain private increment on the
// sequencer thread.
void BM_SequencerLocalIncrement(benchmark::State& state) {
  uint64_t ts = 0;
  for (auto _ : state) {
    ++ts;
    benchmark::DoNotOptimize(ts);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequencerLocalIncrement);

void BM_ZipfDraw(benchmark::State& state) {
  ZipfGenerator gen(1'000'000, static_cast<double>(state.range(0)) / 100.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfDraw)->Arg(0)->Arg(50)->Arg(90);

void BM_ArenaAllocate(benchmark::State& state) {
  Arena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.Allocate(64));
    if (arena.allocated_bytes() > (64u << 20)) arena.Reset();
  }
}
BENCHMARK(BM_ArenaAllocate);

// Version-chain traversal cost as chains grow (the cost the read-set
// annotation optimization removes, Section 4.2.3).
void BM_VersionChainTraversal(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  VersionAllocator alloc;
  Version* head = nullptr;
  for (int i = 0; i < depth; ++i) {
    Version* v = alloc.Alloc(0, 8);
    v->prev = head;
    head = v;
  }
  for (auto _ : state) {
    // A reader of the oldest version walks the full chain.
    Version* v = head;
    while (v->prev != nullptr) v = v->prev;
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_VersionChainTraversal)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_BohmIndexLookup(benchmark::State& state) {
  TableSpec spec;
  spec.id = 0;
  spec.record_size = 8;
  spec.capacity = 100'000;
  BohmTable table(spec, 1);
  VersionAllocator alloc;
  for (Key k = 0; k < 100'000; ++k) {
    table.Head(k)->store(alloc.Alloc(0, spec.record_size),
                         std::memory_order_release);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Head(rng.Uniform(100'000))->load(std::memory_order_acquire));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BohmIndexLookup);

void BM_MpscQueueRoundTrip(benchmark::State& state) {
  MpscQueue<uint64_t> q(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    q.Push(v);
    uint64_t out;
    benchmark::DoNotOptimize(q.TryPop(&out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpscQueueRoundTrip);

void BM_LockOrderComputation(benchmark::State& state) {
  ReadWriteSet set;
  Rng rng(5);
  for (int i = 0; i < 8; ++i) set.AddRead(0, rng.Uniform(1'000'000));
  for (int i = 0; i < 2; ++i) set.AddRmw(0, rng.Uniform(1'000'000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.LockOrder());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockOrderComputation);

}  // namespace
}  // namespace bohm

BENCHMARK_MAIN();
