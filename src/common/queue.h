// Bounded lock-free MPSC queue: the input queue between client threads
// and the Bohm sequencer thread. The capacity must be a power of two.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/macros.h"
#include "common/spin.h"

namespace bohm {

/// Producers claim cells as in Vyukov's bounded MPMC queue: a CAS on
/// `tail_`, then the value, then a release store of the cell's sequence
/// word. The one consumer needs no claim: it owns `head_` as a plain
/// field, acquires the sequence word of the cell at `head_`, and hands
/// the cell back to producers with a release store once the value is
/// moved out.
template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1),
        cells_(std::make_unique<Cell[]>(capacity)) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "capacity must be a power of two");
    for (size_t i = 0; i < capacity; ++i) {
      // relaxed: single-threaded constructor; the queue is published to
      // other threads by whatever hands them the reference.
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(MpscQueue);

  /// Non-blocking push, from any thread; returns false when the queue is
  /// full, and then leaves `value` with the caller.
  bool TryPush(T&& value) {
    Cell* cell;
    // relaxed: tail_ is only a claim ticket; the cell's sequence word
    // (acquire below / release on publish) carries all data ordering —
    // Vyukov's protocol.
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      size_t seq = cell->sequence.load(std::memory_order_acquire);
      intptr_t diff = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        // relaxed: CAS success only claims the ticket; the subsequent
        // sequence release-store publishes the value.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        // relaxed: re-read of the ticket counter; same reasoning as above.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking pop, from the consumer thread only; returns false when
  /// the queue is empty (or its next cell is claimed but not yet
  /// published).
  bool TryPop(T* out) {
    Cell* cell = &cells_[head_ & mask_];
    if (cell->sequence.load(std::memory_order_acquire) != head_ + 1) {
      return false;
    }
    *out = std::move(cell->value);
    // Only after the move: a producer may refill the cell once it sees
    // this store.
    cell->sequence.store(head_ + capacity_, std::memory_order_release);
    ++head_;
    return true;
  }

  /// Blocking push with yielding back-off. A failed attempt leaves
  /// `value` in place, so each retry pushes the same value.
  void Push(T value) {
    SpinWait wait;
    while (!TryPush(std::move(value))) wait.Pause();
  }

  /// Cells claimed by producers so far: every push that returned true,
  /// or is about to. relaxed: a count, not a hand-off — a caller ordered
  /// after a push (its own, or one it synchronized with) reads it back by
  /// coherence, and no data is read on the strength of the value.
  size_t claimed() const { return tail_.load(std::memory_order_relaxed); }

  size_t capacity() const { return capacity_; }

 private:
  struct Cell {
    std::atomic<size_t> sequence;
    T value;
  };

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  /// Consumer-private: read and written by the consumer thread only.
  alignas(kCacheLineSize) size_t head_ = 0;
};

}  // namespace bohm
