// Power-of-two sizing for ring buffers (the Bohm input queue).
#pragma once

#include <cstdint>

namespace bohm {

/// Round `v` up to the next power of two (returns 1 for 0).
inline uint64_t NextPow2(uint64_t v) {
  if (v <= 1) return 1;
  return 1ull << (64 - __builtin_clzll(v - 1));
}

}  // namespace bohm
