#include "log/batch_log.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "log/record.h"

namespace bohm {

std::string SegmentFileName(uint64_t first_seqno) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "log-%020" PRIu64 ".seg", first_seqno);
  return buf;
}

bool ParseSegmentFileName(const std::string& name, uint64_t* first_seqno) {
  if (name.size() != 28 || name.compare(0, 4, "log-") != 0 ||
      name.compare(24, 4, ".seg") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *first_seqno = v;
  return true;
}

namespace {

/// Parent directory of `path` (no trailing slash expected), for syncing
/// the entry of a freshly created log directory.
std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status BatchLog::Open() {
  BOHM_RETURN_NOT_OK(env_->CreateDirIfMissing(dir_));
  // Persist the log directory's own entry: segments fsynced into a
  // directory that itself vanishes on power loss are just as lost.
  BOHM_RETURN_NOT_OK(env_->SyncDir(ParentDir(dir_)));
  fsyncs_.Inc();
  return Status::OK();
}

Status BatchLog::Append(uint64_t seqno, const std::string& payload) {
  Status st = Write(seqno, payload);
  if (!st.ok()) return Fail(std::move(st));
  last_appended_ = seqno;
  if (sync_every_ == 0) {
    // The durability point is the kernel hand-off itself.
    durable_seqno_.store(seqno, std::memory_order_release);
    return Status::OK();
  }
  return ++unsynced_ >= sync_every_ ? Sync() : Status::OK();
}

Status BatchLog::SyncIfUnsynced() {
  return unsynced_ != 0 && !failed() ? Sync() : Status::OK();
}

Status BatchLog::Close() {
  // Clean shutdown leaves a fully durable log under every cadence
  // (including sync_every = 0 — one trailing fsync costs nothing at exit).
  Status st = failed() ? error() : Sync();
  if (file_ == nullptr) return st;
  Status closed = file_->Close();
  file_.reset();
  return st.ok() && !closed.ok() ? Fail(std::move(closed)) : st;
}

Status BatchLog::Write(uint64_t seqno, const std::string& payload) {
  if (file_ != nullptr && segment_size_ >= segment_bytes_) {
    BOHM_RETURN_NOT_OK(file_->Sync());  // rotation is a durability point
    fsyncs_.Inc();
    BOHM_RETURN_NOT_OK(file_->Close());
    file_.reset();
  }
  if (file_ == nullptr) {
    BOHM_RETURN_NOT_OK(
        env_->NewWritableFile(dir_ + "/" + SegmentFileName(seqno), &file_));
    // The new segment's directory entry must be durable before any data
    // fsync can advance the watermark over its records — otherwise power
    // loss can drop the whole file while its contents were "durable".
    BOHM_RETURN_NOT_OK(env_->SyncDir(dir_));
    fsyncs_.Inc();
    segment_size_ = 0;
  }
  scratch_.clear();
  EncodeRecord(&scratch_, seqno, payload);
  BOHM_RETURN_NOT_OK(file_->Append(scratch_.data(), scratch_.size()));
  segment_size_ += scratch_.size();
  bytes_written_.Inc(scratch_.size());
  records_.Inc();
  return Status::OK();
}

Status BatchLog::Sync() {
  if (file_ != nullptr) {
    Status st = file_->Sync();
    if (!st.ok()) return Fail(std::move(st));
    fsyncs_.Inc();
  }
  unsynced_ = 0;
  durable_seqno_.store(last_appended_, std::memory_order_release);
  return Status::OK();
}

Status BatchLog::Fail(Status st) {
  if (!failed()) {
    error_ = st;
    failed_.store(true, std::memory_order_release);
  }
  return st;
}

}  // namespace bohm
