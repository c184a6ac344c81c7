// BatchLog: the durable sequencer log's write path — the segmented
// append-only files, their record framing (record.h), the sync cadence,
// the failure latch and the durable watermark, in one object.
//
// The Bohm hot path must never block on disk (the pipeline's whole point
// is keeping every stage compute-bound), so the sequencer never touches
// the log: the engine's log thread reads each sealed batch from its slot,
// encodes it, and appends it here. The object is single-threaded — only
// the log thread calls its mutators (Open() runs before that thread
// starts). Its cross-thread outputs are the durable watermark, the
// failure latch and the counters. `durable_seqno()` is release-published
// after the fsync that covers a record, and the execution stage acquire-
// reads it to gate batch admission (docs/CONCURRENCY.md rule R6). That
// ordering is what turns "executed" into "durably logged, then executed"
// — the invariant the crash tests check.
//
// On an I/O error the log trips `failed()` and keeps the first error in
// `error()`: the watermark freezes, the log thread stops reading batches,
// execution stops waiting for it, and the engine degrades to rejecting
// new submits with that error.
//
// Segment files are named log-<first-seqno>.seg (seqno zero-padded so
// lexicographic order is numeric order). A segment is created lazily on
// the first append after open/rotation, so its name always carries the
// seqno of its first record; rotation happens at the first append past
// `segment_bytes`. Recovery never appends to an existing segment — a
// recovered engine starts a fresh one — so a segment, once rotated away
// or left behind by a crash, is immutable (modulo tail truncation).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/stats.h"
#include "common/status.h"
#include "log/log_env.h"

namespace bohm {

/// Builds the canonical segment file name for its first seqno.
std::string SegmentFileName(uint64_t first_seqno);

/// Parses a segment file name; returns false for foreign files (recovery
/// ignores them rather than erroring on e.g. editor droppings).
bool ParseSegmentFileName(const std::string& name, uint64_t* first_seqno);

class BatchLog {
 public:
  /// `sync_every`: records per fsync. 0 never fsyncs before Close(): a
  /// record is durable once handed to the kernel.
  BatchLog(std::string dir, LogEnv* env, uint64_t segment_bytes,
           uint32_t sync_every)
      : dir_(std::move(dir)),
        env_(env),
        segment_bytes_(segment_bytes),
        sync_every_(sync_every) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(BatchLog);

  /// Creates the directory if needed. Does not open a segment — that
  /// happens on the first Append, when the first seqno is known.
  Status Open();

  /// Appends one framed record and applies the sync cadence. Seqnos must
  /// be strictly increasing. Call only while !failed().
  Status Append(uint64_t seqno, const std::string& payload);

  /// The idle rule: syncs the records appended since the last durability
  /// point, if any, so an idle pipeline never leaves a batch un-durable.
  /// No-op under sync_every = 0 and after a failure.
  Status SyncIfUnsynced();

  /// Final sync under every cadence (a clean shutdown leaves a fully
  /// durable log), then closes the segment.
  Status Close();

  /// Highest seqno covered by a durability point (release-published; pair
  /// loads with acquire).
  uint64_t durable_seqno() const {
    return durable_seqno_.load(std::memory_order_acquire);
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// The first error that tripped failed() (OK while !failed()).
  Status error() const { return failed() ? error_ : Status::OK(); }

  // Monotone counters, written by the log thread, readable from any.
  uint64_t bytes_written() const { return bytes_written_.Get(); }
  uint64_t records() const { return records_.Get(); }
  uint64_t fsyncs() const { return fsyncs_.Get(); }

 private:
  /// Frames and writes one record, rotating the segment when it is full.
  Status Write(uint64_t seqno, const std::string& payload);
  /// Syncs and advances the durable watermark to the last appended seqno.
  Status Sync();
  /// Latches the first error (written before the failed_ release, so an
  /// acquirer of failed() == true reads it whole) and returns it.
  Status Fail(Status st);

  std::string dir_;
  LogEnv* env_;
  uint64_t segment_bytes_;
  uint32_t sync_every_;
  std::unique_ptr<LogWritableFile> file_;
  uint64_t segment_size_ = 0;
  uint32_t unsynced_ = 0;  // records appended since the last durability point
  uint64_t last_appended_ = 0;
  std::string scratch_;  // reused encode buffer
  std::atomic<bool> failed_{false};
  Status error_;
  std::atomic<uint64_t> durable_seqno_{0};  // 0 = nothing durable yet
  RelaxedCounter bytes_written_;
  RelaxedCounter records_;
  RelaxedCounter fsyncs_;
};

}  // namespace bohm
