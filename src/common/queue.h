// Bounded lock-free queues.
//
//  * MpscQueue — multi-producer/single-consumer; the input queue between
//    client threads and the Bohm sequencer thread.
//  * SpscQueue — single-producer/single-consumer ring with cache-line-
//    padded indices and cached peer indices; the ring carrying encoded
//    batches from the Bohm sequencer to the log-writer thread.
//
// Capacities must be powers of two.
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
  /// full.
  bool TryPush(T value) {
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

  /// Blocking push with yielding back-off.
  void Push(T value) {
    SpinWait wait;
    while (!TryPush(std::move(value))) wait.Pause();
  }

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

/// Bounded wait-free single-producer/single-consumer ring.
///
/// The producer owns `tail_`, the consumer owns `head_`; each side keeps a
/// cached copy of the peer's index so the common case touches only its own
/// cache line plus the slot. The release store of the owned index is the
/// only publication: everything the producer wrote into the slot (and
/// everything it wrote anywhere else beforehand) is visible to a consumer
/// whose acquire load observes the advanced tail — which is exactly the
/// property the Bohm sequencer relies on to publish sealed batches
/// (docs/CONCURRENCY.md rule R5).
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1),
        slots_(std::make_unique<T[]>(capacity)) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "capacity must be a power of two");
  }
  BOHM_DISALLOW_COPY_AND_ASSIGN(SpscQueue);

  /// Producer side. Returns false when the ring is full.
  bool TryPush(T value) {
    // relaxed: tail_ is written only by this (the producer) thread, so it
    // reads back its own last store; ordering rides the release below.
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;  // full
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    // relaxed: head_ is written only by this (the consumer) thread, so it
    // reads back its own last store; the tail acquire below orders the
    // slot read against the producer's release publication.
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;  // empty
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer-side fullness probe (exact from the producer thread). Lets
  /// a producer wait for space without constructing the value it would
  /// push — TryPush consumes its argument even on failure.
  bool Full() const {
    // relaxed: producer-owned index (see TryPush); the acquire on head_
    // pairs with the consumer's release advance.
    return tail_.load(std::memory_order_relaxed) -
               head_.load(std::memory_order_acquire) >=
           capacity_;
  }

  /// Consumer-side emptiness probe (exact from the consumer thread).
  bool Empty() const {
    // relaxed: consumer-owned index (see TryPop).
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<T[]> slots_;
  /// Producer cache line: owned tail index + cached consumer head.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  size_t head_cache_ = 0;
  /// Consumer cache line: owned head index + cached producer tail.
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  size_t tail_cache_ = 0;
};

}  // namespace bohm
