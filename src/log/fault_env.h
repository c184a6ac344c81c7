// FaultLogEnv: deterministic fault injection for the durable log.
//
// Wraps a real LogEnv and corrupts the write path at controlled points so
// the recovery tests can simulate every crash mode the log must survive:
//
//   - crash mid-record: a write is cut short at a byte budget, the rest of
//     that write and everything after is silently dropped (the process
//     "thinks" it succeeded — models data that died in the page cache);
//   - crash at fsync N: the Nth Sync() call drops all not-yet-synced bytes
//     and every later write, modelling power loss between group commits;
//   - honest failures: write or sync starts returning an error (ENOSPC or
//     EIO) so the writer's degraded-mode path can be exercised in-process;
//   - bit flip at offset: one byte of one file is corrupted after the
//     fact, which the CRC must catch on recovery;
//   - slow disk: every data sync stalls first, which widens the window
//     between a record's append and its durability.
//
// "Silently dropped" is the key design choice: a real crash does not
// return an error to the writer — it simply never persists the tail. The
// in-process run completes normally; what the test then recovers from is
// the file as the fault env actually left it.
//
// Single-threaded discipline: only the engine's log thread (through its
// BatchLog) touches the write path, so the fault state needs no locking
// beyond the atomics used for cross-thread test observation.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "log/log_env.h"

namespace bohm {

class FaultLogEnv final : public LogEnv {
 public:
  explicit FaultLogEnv(LogEnv* base = LogEnv::Default()) : base_(base) {}

  // --- fault programming (call before or during a run) ---

  /// After `n` more payload bytes have been appended (across files), the
  /// current write is truncated at the budget and all later writes are
  /// silently dropped: the torn-tail / mid-record crash.
  void CrashAfterBytes(uint64_t n) {
    // relaxed: programmed before the run; consumed by the log thread.
    write_budget_.store(n, std::memory_order_relaxed);
  }

  /// The `n`-th Sync() from now (1-based) crashes: bytes appended since
  /// the previous sync are dropped, as is everything after.
  void CrashAtSync(uint64_t n) {
    // relaxed: programmed before the run; consumed by the log thread.
    sync_budget_.store(n, std::memory_order_relaxed);
  }

  /// Appends start failing honestly with ResourceExhausted ("disk full")
  /// after `n` more bytes. Unlike CrashAfterBytes the writer *sees* the
  /// error and can enter degraded mode.
  void FailWritesAfterBytes(uint64_t n) {
    // relaxed: programmed before the run; consumed by the log thread.
    fail_budget_.store(n, std::memory_order_relaxed);
  }

  /// Every data Sync() first stalls for `micros` (a slow disk), before it
  /// is counted or persists anything.
  void DelaySyncs(uint64_t micros) {
    // relaxed: programmed before the run; consumed by the log thread.
    sync_delay_us_.store(micros, std::memory_order_relaxed);
  }

  /// XORs the byte at `offset` of `path` with `mask` (post-hoc surgery;
  /// applied immediately via the base env).
  Status FlipByte(const std::string& path, uint64_t offset, uint8_t mask);

  // --- observation ---

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  uint64_t bytes_written() const {
    // relaxed: test observation after the run (the join orders it).
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t syncs() const {
    // relaxed: test observation after the run (the join orders it) or
    // after acquiring the durable watermark the sync preceded.
    return syncs_.load(std::memory_order_relaxed);
  }
  uint64_t dir_syncs() const {
    // relaxed: test observation after the run (the join orders it).
    return dir_syncs_.load(std::memory_order_relaxed);
  }
  uint64_t file_syncs() const {
    // relaxed: test observation after the run (the join orders it).
    return file_syncs_.load(std::memory_order_relaxed);
  }

  // --- LogEnv ---

  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Status ListDir(const std::string& dir,
                 std::vector<std::string>* names) override {
    return base_->ListDir(dir, names);
  }
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<LogWritableFile>* file) override;
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  // Directory entries are outside the crash model (CrashAfterBytes /
  // CrashAtSync only drop *file data*): after a programmed crash these
  // become silent no-ops like every other write-path call; otherwise they
  // forward, and the counters let tests assert the log issued them.
  Status SyncDir(const std::string& dir) override {
    // relaxed: observation-only counter / writer-thread-owned flag.
    dir_syncs_.fetch_add(1, std::memory_order_relaxed);
    if (crashed_.load(std::memory_order_relaxed)) return Status::OK();
    return base_->SyncDir(dir);
  }
  Status SyncFile(const std::string& path) override {
    // relaxed: observation-only counter / writer-thread-owned flag.
    file_syncs_.fetch_add(1, std::memory_order_relaxed);
    if (crashed_.load(std::memory_order_relaxed)) return Status::OK();
    return base_->SyncFile(path);
  }

 private:
  friend class FaultLogFile;
  static constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

  LogEnv* base_;
  std::atomic<uint64_t> write_budget_{kNoLimit};
  std::atomic<uint64_t> sync_budget_{kNoLimit};
  std::atomic<uint64_t> fail_budget_{kNoLimit};
  std::atomic<uint64_t> sync_delay_us_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> dir_syncs_{0};
  std::atomic<uint64_t> file_syncs_{0};
};

}  // namespace bohm
