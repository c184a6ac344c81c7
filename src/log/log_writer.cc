#include "log/log_writer.h"

#include "common/spin.h"
#include "common/stats.h"

namespace bohm {

namespace {

/// Sequencer -> writer ring slots (power of two).
constexpr size_t kQueueCapacity = 256;

}  // namespace

LogWriter::LogWriter(BatchLog* log, const LogWriterOptions& opts)
    : log_(log), opts_(opts), queue_(kQueueCapacity) {}

LogWriter::~LogWriter() {
  if (thread_.joinable()) Stop();
}

void LogWriter::Start() {
  thread_ = std::thread([this] { WriterLoop(); });
}

void LogWriter::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

uint64_t LogWriter::Append(uint64_t seqno, std::string payload) {
  // relaxed: advisory — the authoritative failed check is the engine's;
  // here it only short-circuits the wait so a dead writer can't wedge
  // the sequencer.
  if (failed_.load(std::memory_order_relaxed)) return 0;
  if (!queue_.Full()) {
    (void)queue_.TryPush(Pending{seqno, std::move(payload)});
    return 0;
  }
  const uint64_t t0 = MonotonicNanos();
  SpinWait wait;
  while (queue_.Full()) {
    // relaxed: advisory, as above — escape hatch so the spin can't wedge.
    if (failed_.load(std::memory_order_relaxed)) {
      return MonotonicNanos() - t0;  // discard: the log is dead anyway
    }
    wait.Pause();
  }
  (void)queue_.TryPush(Pending{seqno, std::move(payload)});
  return MonotonicNanos() - t0;
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

bool LogWriter::SyncThrough(uint64_t through_seqno) {
  Status st = log_->Sync();
  if (!st.ok()) {
    Fail(std::move(st));
    return false;
  }
  durable_seqno_.store(through_seqno, std::memory_order_release);
  PublishCounters();
  return true;
}

void LogWriter::PublishCounters() {
  // relaxed: plain monitoring numbers; nothing is ordered against them.
  pub_bytes_.store(log_->bytes_written(), std::memory_order_relaxed);
  pub_records_.store(log_->records(), std::memory_order_relaxed);
  pub_fsyncs_.store(log_->fsyncs(), std::memory_order_relaxed);
}

void LogWriter::WriterLoop() {
  SpinWait wait;
  uint64_t unsynced = 0;  // records appended since the last durability point
  uint64_t last_appended = 0;

  auto sync_now = [&] {
    if (SyncThrough(last_appended)) unsynced = 0;
  };

  for (;;) {
    Pending p;
    if (queue_.TryPop(&p)) {
      wait.Reset();
      // relaxed: failed_ is only ever set by this thread (Fail below).
      if (failed_.load(std::memory_order_relaxed)) {
        continue;  // drain-and-discard: never wedge the sequencer
      }
      Status st = log_->Append(p.seqno, p.payload);
      if (!st.ok()) {
        Fail(std::move(st));
        continue;
      }
      last_appended = p.seqno;
      ++unsynced;
      PublishCounters();
      switch (opts_.policy) {
        case FsyncPolicy::kNone:
          // Durability point is the kernel handoff itself.
          durable_seqno_.store(p.seqno, std::memory_order_release);
          unsynced = 0;
          break;
        case FsyncPolicy::kGroup:
          if (unsynced >= opts_.group_size) sync_now();
          break;
      }
      continue;
    }

    // Ring is dry. Group commit syncs whatever accumulated (an idle
    // pipeline must not leave acknowledged-later batches hanging).
    // (relaxed: failed_ is written only by this thread.)
    if (unsynced > 0 && opts_.policy == FsyncPolicy::kGroup &&
        !failed_.load(std::memory_order_relaxed)) {
      sync_now();
      continue;
    }
    if (stop_.load(std::memory_order_acquire) && queue_.Empty()) break;
    wait.Pause();
  }

  // relaxed: failed_ is written only by this thread.
  if (!failed_.load(std::memory_order_relaxed)) {
    // Clean shutdown leaves a fully durable log under every policy
    // (including kNone — one trailing fsync costs nothing at exit).
    Status st = log_->Sync();
    if (st.ok()) {
      if (last_appended != 0) {
        durable_seqno_.store(last_appended, std::memory_order_release);
      }
    } else {
      Fail(std::move(st));
    }
    PublishCounters();
  }
  Status st = log_->Close();
  // relaxed: failed_ is written only by this thread.
  if (!st.ok() && !failed_.load(std::memory_order_relaxed)) {
    Fail(std::move(st));
  }
}

}  // namespace bohm
