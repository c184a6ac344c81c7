// BatchLog: the segmented append-only file behind the durable sequencer
// log. Storage only — framing from record.h, no threading, no policy;
// the group-commit policy lives in LogWriter, which is this class's
// single caller on the write path.
//
// Segment files are named log-<first-seqno>.seg (seqno zero-padded so
// lexicographic order is numeric order). A segment is created lazily on
// the first append after open/rotation, so its name always carries the
// seqno of its first record; rotation happens at the first append past
// `segment_bytes`. Recovery never appends to an existing segment — a
// recovered engine starts a fresh one — so a segment, once rotated away
// or left behind by a crash, is immutable (modulo tail truncation).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
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
  BatchLog(std::string dir, LogEnv* env, uint64_t segment_bytes)
      : dir_(std::move(dir)), env_(env), segment_bytes_(segment_bytes) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(BatchLog);
  ~BatchLog() { (void)Close(); }

  /// Creates the directory if needed. Does not open a segment — that
  /// happens on the first Append, when the first seqno is known.
  Status Open();

  /// Appends one framed record. Seqnos must be strictly increasing.
  Status Append(uint64_t seqno, const std::string& payload);

  /// Durably flushes the current segment (no-op before the first append).
  Status Sync();

  Status Close();

  // Monotone counters for the stats plumbing (single-threaded with the
  // writer; read via LogWriter's published copies).
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t records() const { return records_; }
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  std::string dir_;
  LogEnv* env_;
  uint64_t segment_bytes_;
  std::unique_ptr<LogWritableFile> file_;
  uint64_t segment_size_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t records_ = 0;
  uint64_t fsyncs_ = 0;
  std::string scratch_;  // reused encode buffer
};

}  // namespace bohm
