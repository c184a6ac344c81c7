// Bump-pointer arena allocation.
//
// Both the Bohm pipeline (versions, transaction wrappers) and the
// Hekaton/SI engines (versions, transaction objects) allocate small
// objects at very high rates on thread-private paths. A per-thread arena
// turns each allocation into a pointer bump and makes deallocation a bulk
// operation, exactly the allocation discipline main-memory engines use.
//
// Structures far larger than the caches (the version store and index of a
// table declared with a large footprint) live on huge-page blocks instead:
// a random access into 1 GB of 4 KiB pages pays a page walk on top of its
// cache miss, and page walks serialize the misses that software prefetch
// is meant to overlap.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/macros.h"

namespace bohm {

/// Transparent-huge-page size (x86-64 and arm64 Linux with 4 KiB pages).
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

inline size_t RoundUpToHugePage(size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/// Maps RoundUpToHugePage(bytes) bytes, 2 MiB-aligned and advised
/// MADV_HUGEPAGE. Nothing is written: the kernel populates (and zeroes)
/// one huge page per first-touch fault, so a block costs resident memory
/// only as it is used. Release with FreeHugeBlock(p, bytes). Throws
/// std::bad_alloc when the mapping fails.
inline void* AllocHugeBlock(size_t bytes) {
  const size_t len = RoundUpToHugePage(bytes);
  // Over-map by one huge page and trim, so the block starts on a 2 MiB
  // boundary and every page of it can be backed by a huge page.
  const size_t span = len + kHugePageBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t start = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  if (start > base) ::munmap(raw, start - base);
  const uintptr_t end = start + len;
  if (base + span > end) {
    ::munmap(reinterpret_cast<void*>(end), base + span - end);
  }
  void* block = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
  (void)::madvise(block, len, MADV_HUGEPAGE);  // a hint; 4 KiB pages work
#endif
  return block;
}

inline void FreeHugeBlock(void* p, size_t bytes) {
  ::munmap(p, RoundUpToHugePage(bytes));
}

/// Releases a Block the way MakeBlock obtained it.
struct BlockFree {
  size_t huge_bytes;  // 0: a heap block from new[]
  void operator()(char* p) const {
    if (huge_bytes == 0) {
      delete[] p;
    } else {
      FreeHugeBlock(p, huge_bytes);
    }
  }
};
using Block = std::unique_ptr<char[], BlockFree>;

/// `bytes` of memory: an AllocHugeBlock block when `huge` (contents
/// unspecified), else a zero-filled heap block.
inline Block MakeBlock(size_t bytes, bool huge) {
  if (huge) return Block(static_cast<char*>(AllocHugeBlock(bytes)), {bytes});
  return Block(new char[bytes](), {0});
}

/// A growable bump allocator. NOT thread-safe: each thread owns its own
/// arena. Memory is released only on Reset()/destruction, which matches
/// the engines' batch-oriented lifetimes.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 1u << 20;  // 1 MiB

  /// `huge_pages`: take blocks from AllocHugeBlock (block sizes round up
  /// to whole 2 MiB pages, contents start unspecified) instead of zeroed
  /// heap blocks. For arenas sized to a large declared footprint.
  explicit Arena(size_t block_bytes = kDefaultBlockBytes,
                 bool huge_pages = false)
      : block_bytes_(huge_pages ? RoundUpToHugePage(block_bytes)
                                : block_bytes),
        huge_pages_(huge_pages) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(Arena);

  /// Allocates `bytes` with at least `align` alignment. Never fails except
  /// by std::bad_alloc from the underlying allocator.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    size_t cur = reinterpret_cast<size_t>(ptr_);
    size_t aligned = (cur + align - 1) & ~(align - 1);
    size_t needed = (aligned - cur) + bytes;
    if (BOHM_UNLIKELY(needed > remaining_)) {
      NewBlock(bytes + align);
      cur = reinterpret_cast<size_t>(ptr_);
      aligned = (cur + align - 1) & ~(align - 1);
      needed = (aligned - cur) + bytes;
    }
    ptr_ += needed;
    remaining_ -= needed;
    allocated_bytes_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  /// Allocates and default-constructs a T. T must be trivially
  /// destructible (the arena never runs destructors).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Drops every allocation but keeps the first block for reuse.
  void Reset() {
    if (blocks_.size() > 1) blocks_.resize(1);
    if (!blocks_.empty()) {
      ptr_ = blocks_[0].get();
      remaining_ = block_bytes_;
    } else {
      ptr_ = nullptr;
      remaining_ = 0;
    }
    allocated_bytes_ = 0;
  }

  /// Total bytes handed out since construction/Reset (diagnostics).
  size_t allocated_bytes() const { return allocated_bytes_; }
  size_t block_count() const { return blocks_.size(); }
  size_t block_bytes() const { return block_bytes_; }
  bool huge_pages() const { return huge_pages_; }

 private:
  void NewBlock(size_t min_bytes) {
    size_t sz = min_bytes > block_bytes_ ? min_bytes : block_bytes_;
    if (huge_pages_) sz = RoundUpToHugePage(sz);
    blocks_.push_back(MakeBlock(sz, huge_pages_));
    ptr_ = blocks_.back().get();
    remaining_ = sz;
  }

  size_t block_bytes_;
  bool huge_pages_;
  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  size_t allocated_bytes_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace bohm
