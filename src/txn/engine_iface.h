// Common interface for the caller-thread ("executor") engines: Silo-OCC,
// 2PL, Hekaton, and SI. These engines execute a transaction on the thread
// that submits it, retrying internally on concurrency-control aborts —
// the paper's baselines are all "configured to retry transactions in the
// event of an abort induced by concurrency control" (Section 4).
//
// Bohm itself is pipelined (transactions flow through dedicated sequencer
// / CC / execution threads) and exposes Submit/WaitForIdle instead; the
// harness adapts both shapes to one workload driver.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "common/status.h"
#include "txn/key.h"
#include "txn/procedure.h"

namespace bohm {

class ExecutorEngine {
 public:
  virtual ~ExecutorEngine() = default;

  /// Inserts an initial record (nullptr payload zero-fills). Load is
  /// single-threaded and must complete before the first Execute.
  virtual Status Load(TableId table, Key key, const void* payload) = 0;

  /// Runs one transaction to completion on the calling thread.
  /// `thread_id` identifies the caller's pre-registered worker slot
  /// (0 <= thread_id < worker_threads()). Returns OK on commit, Aborted
  /// when the transaction's own logic aborted. Concurrency-control aborts
  /// are retried internally and surface only in Stats().
  virtual Status Execute(StoredProcedure& proc, uint32_t thread_id) = 0;

  /// Copies the newest committed value of a record into `out` (its
  /// table's record_size bytes). Not transactional: call only when no
  /// transaction is running. Returns NotFound when the record is absent.
  virtual Status ReadLatest(TableId table, Key key, void* out) const = 0;

  /// Number of worker slots the engine was configured with.
  virtual uint32_t worker_threads() const = 0;

  /// Aggregated counters across all worker slots.
  virtual StatsSnapshot Stats() const = 0;

  /// Engine name for reports ("2PL", "OCC", "Hekaton", "SI").
  virtual const char* name() const = 0;
};

}  // namespace bohm
