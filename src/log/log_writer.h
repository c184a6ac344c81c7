// LogWriter: the dedicated I/O thread between the sequencer and the
// BatchLog.
//
// The Bohm hot path must never block on disk (the pipeline's whole point
// is keeping every stage compute-bound), so the sequencer hands each
// sealed batch's encoded payload into an SPSC ring and moves on; this
// thread drains the ring, appends records, and fsyncs according to the
// configured group-commit policy. The one cross-thread output is the
// durable watermark: `durable_seqno()` is release-published after the
// fsync that covers a record, and the execution stage acquire-reads it to
// gate batch admission (docs/CONCURRENCY.md rule R6). That ordering is what turns "executed" into "durably logged, then
// executed" — the invariant the crash tests check.
//
// On an I/O error the writer trips `failed()` and switches to drain-and-
// discard: the ring keeps emptying (so the sequencer never wedges), the
// watermark freezes, and the engine degrades to rejecting new submits.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/queue.h"
#include "common/status.h"
#include "log/batch_log.h"

namespace bohm {

/// When the log writer calls fsync.
enum class FsyncPolicy {
  kNone,   // never (OS decides); "durable" means handed to the kernel
  kGroup,  // after `group_size` records, or when the ring runs dry; a
           // group of 1 syncs every batch record (strongest, slowest)
};

struct LogWriterOptions {
  FsyncPolicy policy = FsyncPolicy::kGroup;
  uint32_t group_size = 8;
};

class LogWriter {
 public:
  LogWriter(BatchLog* log, const LogWriterOptions& opts);
  BOHM_DISALLOW_COPY_AND_ASSIGN(LogWriter);
  ~LogWriter();

  void Start();

  /// Drains everything already enqueued, issues a final sync (all
  /// policies — a clean shutdown leaves a fully durable log), and joins.
  void Stop();

  /// Producer side; sequencer thread only. Blocks (spin-then-yield) while
  /// the ring is full — that wait is the log back-pressure and is
  /// returned in nanoseconds for stall attribution. After a writer
  /// failure the payload is discarded immediately (the caller checks
  /// failed() at its own pace).
  uint64_t Append(uint64_t seqno, std::string payload);

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
  struct Pending {
    uint64_t seqno = 0;
    std::string payload;
  };

  void WriterLoop();
  void Fail(Status st);
  /// Syncs and advances the durable watermark to `through_seqno`.
  bool SyncThrough(uint64_t through_seqno);
  void PublishCounters();

  BatchLog* log_;
  LogWriterOptions opts_;
  SpscQueue<Pending> queue_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> durable_seqno_{0};  // 0 = nothing durable yet
  std::atomic<uint64_t> pub_bytes_{0};
  std::atomic<uint64_t> pub_records_{0};
  std::atomic<uint64_t> pub_fsyncs_{0};
  Status error_;  // written by the writer thread before failed_ release
};

}  // namespace bohm
