// LogEnv: the file-system indirection behind the durable sequencer log.
//
// All raw I/O in the tree lives behind this interface and inside src/log/
// (enforced by scripts/lint_concurrency.py rule `io-containment`): the
// pipeline stages never issue a write or fsync themselves; the engine's
// log thread hands each sealed batch's record to its BatchLog, which
// talks to a LogEnv. The indirection exists for exactly one reason —
// fault injection (src/log/fault_env.h): the crash-recovery proof suite
// swaps in an env that drops, truncates, corrupts or fails writes at
// controlled points, which is how "kill -9 at byte N" becomes a
// deterministic unit test.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace bohm {

/// An open append-only file. Not thread-safe; owned and driven by the
/// engine's log thread.
class LogWritableFile {
 public:
  virtual ~LogWritableFile() = default;

  /// Appends exactly `n` bytes (looping over short writes internally).
  virtual Status Append(const void* data, size_t n) = 0;

  /// Durably flushes everything appended so far (fsync).
  virtual Status Sync() = 0;

  virtual Status Close() = 0;
};

class LogEnv {
 public:
  virtual ~LogEnv() = default;

  virtual Status CreateDirIfMissing(const std::string& dir) = 0;

  /// Regular-file names in `dir` (no ordering guarantee; callers sort).
  virtual Status ListDir(const std::string& dir,
                         std::vector<std::string>* names) = 0;

  /// Opens `path` for appending, creating it (the segment-rotation path
  /// always creates; re-opening an existing file appends after its tail).
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<LogWritableFile>* file) = 0;

  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;

  /// Shrinks `path` to `size` bytes — the tail-repair primitive used by
  /// recovery to drop a torn or corrupt final record.
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  /// Durably persists the directory itself (fsync of an O_DIRECTORY fd).
  /// Data fsyncs cover a file's bytes, not its *name*: on power loss the
  /// entry for a freshly created segment can vanish with all its records.
  /// The log syncs the directory after every segment creation, before the
  /// durable watermark may cover any record in it.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Durably persists an existing file by path (open + fsync + close).
  /// Recovery uses it to make tail repair (TruncateFile) itself durable —
  /// an un-persisted truncate could resurrect damaged tail bytes after
  /// the segment is no longer last, turning repairable damage into a
  /// refused mid-log hole.
  virtual Status SyncFile(const std::string& path) = 0;

  /// The real POSIX-backed environment (process-wide singleton).
  static LogEnv* Default();
};

}  // namespace bohm
