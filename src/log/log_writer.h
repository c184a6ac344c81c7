// LogWriter: the group-commit policy and failure latch between the
// engine's log thread and the BatchLog.
//
// The Bohm hot path must never block on disk (the pipeline's whole point
// is keeping every stage compute-bound), so the sequencer never touches
// the log: a dedicated log thread reads each sealed batch from its slot,
// encodes it, and hands the record to this object, which appends it and
// fsyncs according to the configured policy. The object is single-
// threaded — only the log thread calls its mutators. The one cross-thread
// output is the durable watermark: `durable_seqno()` is release-published
// after the fsync that covers a record, and the execution stage acquire-
// reads it to gate batch admission (docs/CONCURRENCY.md rule R6). That
// ordering is what turns "executed" into "durably logged, then executed"
// — the invariant the crash tests check.
//
// On an I/O error the writer trips `failed()`: the watermark freezes, the
// log thread stops reading batches, execution stops waiting for it, and
// the engine degrades to rejecting new submits.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "log/batch_log.h"

namespace bohm {

/// When the log writer calls fsync.
enum class FsyncPolicy {
  kNone,   // never (OS decides); "durable" means handed to the kernel
  kGroup,  // after `group_size` records, or when no sealed batch is
           // waiting; a group of 1 syncs every batch record (strongest,
           // slowest)
};

struct LogWriterOptions {
  FsyncPolicy policy = FsyncPolicy::kGroup;
  uint32_t group_size = 8;
};

class LogWriter {
 public:
  LogWriter(BatchLog* log, const LogWriterOptions& opts)
      : log_(log), opts_(opts) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(LogWriter);

  /// Appends the record of `seqno` and applies the fsync policy. Returns
  /// false once the writer has failed (call only while !failed()).
  bool Append(uint64_t seqno, const std::string& payload);

  /// Group commit's idle rule: syncs the records appended since the last
  /// durability point, if any, so an idle pipeline never leaves a batch
  /// un-durable. No-op under kNone and after a failure.
  void SyncIfUnsynced();

  /// Final sync under every policy (a clean shutdown leaves a fully
  /// durable log), then closes the segment.
  void Close();

  /// Highest seqno covered by the policy's durability point
  /// (release-published; pair loads with acquire).
  uint64_t durable_seqno() const {
    return durable_seqno_.load(std::memory_order_acquire);
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// First error that tripped failed() (call only after failed()).
  Status error() const;

  // Published copies of the BatchLog counters (safe from any thread).
  // relaxed: monitoring values; nothing is ordered against them.
  uint64_t bytes_written() const {
    return pub_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t records() const {
    // relaxed: monitoring value, as above.
    return pub_records_.load(std::memory_order_relaxed);
  }
  uint64_t fsyncs() const {
    // relaxed: monitoring value, as above.
    return pub_fsyncs_.load(std::memory_order_relaxed);
  }

 private:
  void Fail(Status st);
  /// Syncs and advances the durable watermark to the last appended seqno.
  void Sync();
  void PublishCounters();

  BatchLog* log_;
  LogWriterOptions opts_;
  uint64_t unsynced_ = 0;  // records appended since the last durability point
  uint64_t last_appended_ = 0;
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> durable_seqno_{0};  // 0 = nothing durable yet
  std::atomic<uint64_t> pub_bytes_{0};
  std::atomic<uint64_t> pub_records_{0};
  std::atomic<uint64_t> pub_fsyncs_{0};
  Status error_;  // written by the log thread before failed_ release
};

}  // namespace bohm
