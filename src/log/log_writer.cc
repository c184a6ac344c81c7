#include "log/log_writer.h"

namespace bohm {

bool LogWriter::Append(uint64_t seqno, const std::string& payload) {
  Status st = log_->Append(seqno, payload);
  if (!st.ok()) {
    Fail(std::move(st));
    return false;
  }
  last_appended_ = seqno;
  PublishCounters();
  if (opts_.policy == FsyncPolicy::kNone) {
    // The durability point is the kernel hand-off itself.
    durable_seqno_.store(seqno, std::memory_order_release);
  } else if (++unsynced_ >= opts_.group_size) {
    Sync();
  }
  return !failed();
}

void LogWriter::SyncIfUnsynced() {
  if (unsynced_ != 0 && !failed()) Sync();
}

void LogWriter::Close() {
  // Clean shutdown leaves a fully durable log under every policy
  // (including kNone — one trailing fsync costs nothing at exit).
  if (!failed()) Sync();
  Status st = log_->Close();
  if (!st.ok() && !failed()) Fail(std::move(st));
}

Status LogWriter::error() const {
  // failed_ was release-stored after error_ was written, so an acquire
  // observer of failed() == true reads a complete Status here.
  return failed() ? error_ : Status::OK();
}

void LogWriter::Fail(Status st) {
  error_ = std::move(st);
  failed_.store(true, std::memory_order_release);
}

void LogWriter::Sync() {
  Status st = log_->Sync();
  if (!st.ok()) {
    Fail(std::move(st));
    return;
  }
  unsynced_ = 0;
  durable_seqno_.store(last_appended_, std::memory_order_release);
  PublishCounters();
}

void LogWriter::PublishCounters() {
  // relaxed: plain monitoring numbers; nothing is ordered against them.
  pub_bytes_.store(log_->bytes_written(), std::memory_order_relaxed);
  pub_records_.store(log_->records(), std::memory_order_relaxed);
  pub_fsyncs_.store(log_->fsyncs(), std::memory_order_relaxed);
}

}  // namespace bohm
