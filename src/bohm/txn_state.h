// Per-transaction state inside the Bohm pipeline.
//
// A BohmTxn wraps a StoredProcedure with the version references resolved
// by the CC phase: one Version* per footprint record, in the procedure's
// own [reads | writes] order (txn/rwset.h) — a placeholder per write-set
// element and an annotated read reference per read-set element (the
// read-set optimization of Section 3.2.3). The records themselves are not
// copied: CC and execution read them in place from proc->rwset(), which is
// immutable from Submit until the transaction is done with. A
// transaction's timestamp is its log position (batch id, index within the
// batch, Section 3.2.1) and is never stored. Execution threads claim
// transactions through the Unprocessed → Executing → Complete state
// machine of Section 3.3.1.
#pragma once

#include <atomic>
#include <cstdint>

#include "bohm/version.h"
#include "txn/procedure.h"

namespace bohm {

enum class ExecState : uint32_t {
  kUnprocessed = 0,  // logic not yet evaluated
  kExecuting = 1,    // an execution thread holds exclusive access
  kComplete = 2,     // logic evaluated, all placeholders filled
};

class BohmTxn {
 public:
  BohmTxn(StoredProcedure* p, uint64_t tick, uint64_t interest)
      : proc(p), submit_tick(tick), cc_interest(interest) {}

  StoredProcedure* proc;
  /// MonotonicNanos() at Submit() — the client-side start of the
  /// end-to-end latency measurement, recorded by the stripe owner once
  /// the transaction's stripe is complete.
  uint64_t submit_tick;
  /// Bit i set when CC thread i has work in this transaction (built by
  /// Submit on the client thread — the Section 3.2.2 pre-processing).
  uint64_t cc_interest;

  std::atomic<uint32_t> state{static_cast<uint32_t>(ExecState::kUnprocessed)};
  /// Set by the executing thread before its release store of Complete:
  /// the transaction's logic requested an abort (its placeholders were
  /// filled with the preceding versions' values, Section 3.3.1). The
  /// stripe owner reads it after acquiring Complete.
  bool logic_aborted = false;

  /// One slot per footprint record, reads then writes: the version a read
  /// observes (nullptr when the record does not exist at this
  /// transaction's timestamp) and the placeholder a write fills. The
  /// array follows the object in its batch arena (BytesFor); every slot is
  /// written by the CC thread that owns the record's partition.
  Version** versions() { return reinterpret_cast<Version**>(this + 1); }
  Version* const* versions() const {
    return reinterpret_cast<Version* const*>(this + 1);
  }

  /// Arena bytes for a transaction with `records` footprint records.
  static size_t BytesFor(uint32_t records) {
    return sizeof(BohmTxn) + records * sizeof(Version*);
  }

  ExecState LoadState(std::memory_order mo = std::memory_order_acquire) const {
    return static_cast<ExecState>(state.load(mo));
  }
  bool IsComplete() const { return LoadState() == ExecState::kComplete; }
};

static_assert(std::is_trivially_destructible_v<BohmTxn>,
              "BohmTxn lives in batch arenas");
static_assert(sizeof(BohmTxn) % alignof(Version*) == 0,
              "the version array follows the object");

}  // namespace bohm
