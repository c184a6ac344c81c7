// Low-level portability and convenience macros shared across the codebase.
#pragma once

#include <cstddef>

// Size of a cache line on every x86-64 / aarch64 machine we care about.
// Used to pad hot per-thread state so that logically-private fields never
// share a line (the paper's design philosophy is to eliminate coherence
// traffic; false sharing would silently reintroduce it).
inline constexpr std::size_t kCacheLineSize = 64;

// Adjacent-line prefetchers (Intel's spatial prefetcher) fetch lines in
// aligned 128-byte pairs, so two writers on the two lines of one pair
// still contend. Neighbouring groups with different writers are aligned
// to a whole pair.
inline constexpr std::size_t kLinePairSize = 2 * kCacheLineSize;

#define BOHM_DISALLOW_COPY_AND_ASSIGN(T) \
  T(const T&) = delete;                  \
  T& operator=(const T&) = delete

#if defined(__GNUC__) || defined(__clang__)
#define BOHM_LIKELY(x) (__builtin_expect(!!(x), 1))
#define BOHM_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#else
#define BOHM_LIKELY(x) (x)
#define BOHM_UNLIKELY(x) (x)
#endif
