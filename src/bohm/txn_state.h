// Per-transaction state inside the Bohm pipeline.
//
// A BohmTxn wraps a StoredProcedure with (1) its timestamp — its position
// in the sequencer's log (Section 3.2.1) — and (2) the version references
// resolved by the CC phase: one placeholder per write-set element and one
// annotated read reference per read-set element (the read-set optimization
// of Section 3.2.3). Execution threads claim transactions through the
// Unprocessed → Executing → Complete state machine of Section 3.3.1.
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

/// A read-set element with the version reference the CC phase annotated
/// ("a reference to the correct version of the record to read",
/// Section 3.2.3). nullptr when the record does not exist at this
/// transaction's timestamp.
struct ReadRef {
  RecordId rec;
  Version* version = nullptr;
};

/// A write-set element with its pre-inserted placeholder version.
struct WriteRef {
  RecordId rec;
  Version* version = nullptr;
  /// Set by the executing thread when the transaction deleted the record:
  /// the placeholder is published as a tombstone.
  bool tombstone = false;
};

class BohmTxn {
 public:
  StoredProcedure* proc = nullptr;
  uint64_t ts = 0;
  int64_t batch_id = 0;
  /// MonotonicNanos() at Submit() — the client-side start of the
  /// end-to-end latency measurement. Carried through the sequencer so the
  /// execution stage can record submit→commit-ack latency at commit
  /// publication.
  uint64_t submit_tick = 0;
  /// Bit i set when CC thread i has work in this transaction (computed by
  /// the sequencer's pre-processing — the Section 3.2.2 scalability
  /// mechanism).
  uint64_t cc_interest = 0;

  ReadRef* reads = nullptr;    // arena array, length n_reads
  uint32_t n_reads = 0;
  WriteRef* writes = nullptr;  // arena array, length n_writes
  uint32_t n_writes = 0;

  std::atomic<uint32_t> state{static_cast<uint32_t>(ExecState::kUnprocessed)};
  /// Set by the executing thread before Complete: the transaction's logic
  /// requested an abort (its placeholders were filled with the preceding
  /// versions' values, Section 3.3.1).
  bool logic_aborted = false;

  ExecState LoadState(std::memory_order mo = std::memory_order_acquire) const {
    return static_cast<ExecState>(state.load(mo));
  }
  bool IsComplete() const { return LoadState() == ExecState::kComplete; }

  /// Finds this transaction's read/write ref for a record (linear scan —
  /// OLTP footprints are a handful of elements). nullptr when undeclared.
  ReadRef* FindRead(TableId table, Key key);
  WriteRef* FindWrite(TableId table, Key key);
};

static_assert(std::is_trivially_destructible_v<BohmTxn>,
              "BohmTxn lives in batch arenas");

}  // namespace bohm
