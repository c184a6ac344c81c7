// Software prefetch hints.
//
// A prefetch is only a hint: it never faults, never changes what any
// thread observes, and is invisible to the C++ memory model (and to
// TSan). It may be issued on any address, including memory another thread
// is writing or has freed; the engines issue them only on footprints they
// already know from their input (docs/CONCURRENCY.md, rule R8).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace bohm {

/// Pulls the line holding `p` toward L1 for reading.
inline void PrefetchRead(const void* p) {
  __builtin_prefetch(p, 0, 3);
}

/// Pulls the line holding `p` toward L1 in exclusive state, ahead of a
/// store, so the store does not pay a second read-for-ownership trip.
/// On x86-64 this must be the PREFETCHW instruction itself:
/// __builtin_prefetch(p, 1) only becomes PREFETCHW when the whole
/// translation unit is built for a PRFCHW target (otherwise it is a plain
/// read prefetch), and a target("prfchw") helper can be dropped outright.
/// PREFETCHW decodes as a NOP on x86-64 CPUs that lack it. The
/// prefetchw_present ctest disassembles the CC and exec objects and fails
/// if the instruction is missing.
inline void PrefetchWrite(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetchw (%0)" : : "r"(p));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

/// Prefetches every cache line of [p, p + bytes).
inline void PrefetchReadRange(const void* p, size_t bytes) {
  const uintptr_t end = reinterpret_cast<uintptr_t>(p) + bytes;
  const uintptr_t first =
      reinterpret_cast<uintptr_t>(p) & ~uintptr_t{kCacheLineSize - 1};
  for (uintptr_t a = first; a < end; a += kCacheLineSize) {
    PrefetchRead(reinterpret_cast<const void*>(a));
  }
}

/// PrefetchWrite over every cache line of [p, p + bytes).
inline void PrefetchWriteRange(const void* p, size_t bytes) {
  const uintptr_t end = reinterpret_cast<uintptr_t>(p) + bytes;
  const uintptr_t first =
      reinterpret_cast<uintptr_t>(p) & ~uintptr_t{kCacheLineSize - 1};
  for (uintptr_t a = first; a < end; a += kCacheLineSize) {
    PrefetchWrite(reinterpret_cast<const void*>(a));
  }
}

}  // namespace bohm
