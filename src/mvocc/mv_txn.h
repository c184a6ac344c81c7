// Transaction objects for the Hekaton/SI engines, including commit
// dependencies: "an optimization that allows a transaction to
// speculatively read uncommitted data" (Section 4). A transaction that
// speculatively reads a Preparing transaction's version registers itself
// as a dependent; it cannot commit until the dependency resolves, and
// aborts (cascading) if the dependency aborts.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/spin.h"
#include "mvocc/mv_record.h"

namespace bohm {

enum class MVTxnState : uint32_t {
  kActive = 0,     // executing logic
  kPreparing = 1,  // drawing or holding its end timestamp, validating
  kCommitted = 2,
  kAborted = 3,
};

class MVTxn {
 public:
  MVTxn() = default;
  BOHM_DISALLOW_COPY_AND_ASSIGN(MVTxn);

  /// end_ts while the timestamp is being drawn: a Preparing transaction
  /// publishes its state *before* it draws the end timestamp, so a reader
  /// whose begin timestamp is later never sees it as Active (which would
  /// hide a version committed before the reader's snapshot).
  static constexpr uint64_t kEndPending = UINT64_MAX;

  std::atomic<uint32_t> state{static_cast<uint32_t>(MVTxnState::kActive)};
  uint64_t begin_ts = 0;
  /// kEndPending until drawn; meaningful once state >= kPreparing. Read it
  /// through EndTs(), which waits out the pending window.
  std::atomic<uint64_t> end_ts{kEndPending};

  /// Outstanding commit dependencies this transaction waits on.
  std::atomic<int32_t> dep_count{0};
  /// Set when any dependency aborted (forces a cascaded abort).
  std::atomic<bool> dep_failed{false};

  MVTxnState State() const {
    return static_cast<MVTxnState>(state.load(std::memory_order_acquire));
  }

  /// The end timestamp of a transaction observed in state >= kPreparing,
  /// spinning while it is still being drawn (a few instructions, unless
  /// the drawing thread is descheduled inside the window).
  uint64_t EndTs() const {
    uint64_t e = end_ts.load(std::memory_order_acquire);
    SpinWait wait;
    while (e == kEndPending) {
      wait.Pause();
      e = end_ts.load(std::memory_order_acquire);
    }
    return e;
  }

  /// Registers `dependent` as waiting on this transaction's outcome.
  /// Returns false when this transaction is no longer Preparing — the
  /// caller must then resolve against the final state itself.
  bool TryRegisterDependent(MVTxn* dependent);

  /// Transitions Preparing -> outcome and resolves all registered
  /// dependents (decrement their counters; flag them on abort).
  void FinishAndResolveDependents(MVTxnState outcome);

  /// Read-set entry: version observed (Hekaton validation re-checks its
  /// visibility as of the end timestamp).
  struct ReadEntry {
    MVVersion* version;
  };
  /// Write-set entry: the version this transaction installed and the
  /// predecessor whose End field it tagged (nullptr for an insert).
  struct WriteEntry {
    MVRecordSlot* slot;
    MVVersion* installed;
    MVVersion* replaced;
  };

  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;

 private:
  SpinLock dep_lock_;
  std::vector<MVTxn*> dependents_;
};

}  // namespace bohm
