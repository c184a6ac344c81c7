#include "log/fault_env.h"

#include <chrono>
#include <thread>

namespace bohm {

namespace {
constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();
}  // namespace

/// Buffers appended bytes until they are "persisted": a successful Sync()
/// flushes the buffer to the base file, a programmed crash discards it.
/// This is what makes the sync-crash model honest — bytes the writer
/// appended but never synced genuinely vanish from the recovered file.
/// A byte-budget crash flushes the surviving prefix first (a torn write
/// can reach disk without a sync), then drops everything after.
class FaultLogFile final : public LogWritableFile {
 public:
  FaultLogFile(FaultLogEnv* env, std::unique_ptr<LogWritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(const void* data, size_t n) override {
    // relaxed: all fault state is owned by the single log thread (see
    // header); only crashed_ is release-published (relaxed: throughout).
    if (env_->crashed_.load(std::memory_order_relaxed)) {
      return Status::OK();  // lying success: the process never learns
    }
    const char* p = static_cast<const char*>(data);

    uint64_t fail = env_->fail_budget_.load(std::memory_order_relaxed);
    if (fail != kNoLimit) {
      if (fail < n) {
        // Short write, then an honest error the writer gets to handle
        // (relaxed: same single-thread ownership as above).
        pending_.append(p, static_cast<size_t>(fail));
        env_->fail_budget_.store(0, std::memory_order_relaxed);
        env_->bytes_written_.fetch_add(fail, std::memory_order_relaxed);
        return Status::ResourceExhausted("injected: disk full");
      }
      env_->fail_budget_.store(fail - n, std::memory_order_relaxed);
    }

    // relaxed: single-thread ownership again; crashed_ alone is released.
    uint64_t budget = env_->write_budget_.load(std::memory_order_relaxed);
    if (budget != kNoLimit && budget < n) {
      // Torn tail: the prefix that fit the budget persists immediately
      // (no sync needed — it made it out of the page cache), the rest of
      // this write and every later one is silently gone (relaxed: ditto).
      pending_.append(p, static_cast<size_t>(budget));
      env_->bytes_written_.fetch_add(budget, std::memory_order_relaxed);
      Status st = FlushPending();
      env_->crashed_.store(true, std::memory_order_release);
      return st.ok() ? Status::OK() : st;
    }
    if (budget != kNoLimit) {
      // relaxed: same single-thread ownership.
      env_->write_budget_.store(budget - n, std::memory_order_relaxed);
    }

    pending_.append(p, n);
    // relaxed: observation-only counter.
    env_->bytes_written_.fetch_add(n, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Sync() override {
    // relaxed: writer-thread-owned fault state (see header); the crash
    // store below is release so crashed() observers see it promptly.
    if (env_->crashed_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    // relaxed: programmed before the run, like the budgets.
    const uint64_t delay = env_->sync_delay_us_.load(std::memory_order_relaxed);
    if (delay != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
    }
    env_->syncs_.fetch_add(1, std::memory_order_relaxed);
    uint64_t budget = env_->sync_budget_.load(std::memory_order_relaxed);
    if (budget != kNoLimit) {
      if (budget <= 1) {
        // Power loss at this group commit: un-synced bytes vanish
        // (relaxed: same single-thread ownership).
        pending_.clear();
        env_->crashed_.store(true, std::memory_order_release);
        return Status::OK();
      }
      env_->sync_budget_.store(budget - 1, std::memory_order_relaxed);
    }
    BOHM_RETURN_NOT_OK(FlushPending());
    return base_->Sync();
  }

  Status Close() override {
    // relaxed: writer-thread-owned flag, as above.
    if (env_->crashed_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    // A clean close persists everything outstanding, like a clean
    // shutdown's final flush.
    BOHM_RETURN_NOT_OK(FlushPending());
    return base_->Close();
  }

 private:
  Status FlushPending() {
    if (pending_.empty()) return Status::OK();
    Status st = base_->Append(pending_.data(), pending_.size());
    pending_.clear();
    return st;
  }

  FaultLogEnv* env_;
  std::unique_ptr<LogWritableFile> base_;
  std::string pending_;  // appended but not yet "persisted"
};

Status FaultLogEnv::NewWritableFile(const std::string& path,
                                    std::unique_ptr<LogWritableFile>* file) {
  std::unique_ptr<LogWritableFile> base_file;
  BOHM_RETURN_NOT_OK(base_->NewWritableFile(path, &base_file));
  *file = std::make_unique<FaultLogFile>(this, std::move(base_file));
  return Status::OK();
}

Status FaultLogEnv::FlipByte(const std::string& path, uint64_t offset,
                             uint8_t mask) {
  std::string contents;
  BOHM_RETURN_NOT_OK(base_->ReadFileToString(path, &contents));
  if (offset >= contents.size()) {
    return Status::InvalidArgument("FlipByte offset past end of file");
  }
  contents[offset] = static_cast<char>(contents[offset] ^ mask);
  BOHM_RETURN_NOT_OK(base_->TruncateFile(path, 0));
  std::unique_ptr<LogWritableFile> f;
  BOHM_RETURN_NOT_OK(base_->NewWritableFile(path, &f));
  BOHM_RETURN_NOT_OK(f->Append(contents.data(), contents.size()));
  BOHM_RETURN_NOT_OK(f->Sync());
  return f->Close();
}

}  // namespace bohm
