// Key hashing. A single strong 64-bit mixer is used everywhere a key must
// be mapped to a bucket, so the hash indexes of the single-version
// engines see well-scattered bits even for dense integer key spaces (YCSB
// and SmallBank keys are 0..N-1).
#pragma once

#include <cstdint>

namespace bohm {

/// Stafford's Mix13 finalizer (the splitmix64 finalizer): full-avalanche,
/// invertible 64-bit mixing.
inline uint64_t HashKey(uint64_t key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Combines a table id and key into one hash (used by lock tables that
/// span all tables).
inline uint64_t HashTableKey(uint32_t table, uint64_t key) {
  return HashKey(key ^ (static_cast<uint64_t>(table) << 56 ^
                        static_cast<uint64_t>(table) * 0xc2b2ae3d27d4eb4full));
}

/// Round `v` up to the next power of two (returns 1 for 0).
inline uint64_t NextPow2(uint64_t v) {
  if (v <= 1) return 1;
  return 1ull << (64 - __builtin_clzll(v - 1));
}

}  // namespace bohm
