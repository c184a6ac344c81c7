#include "occ/silo_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "common/atomic_words.h"
#include "common/spin.h"

namespace bohm {

namespace {

/// Back-off after an abort: initial pause in microseconds, doubled per
/// consecutive abort up to the cap.
constexpr uint64_t kBackoffMinUs = 2;
constexpr uint64_t kBackoffMaxUs = 512;

}  // namespace

/// TxnOps for Silo: reads hand out stable thread-local copies; writes go
/// to the thread-local buffer and reach the database only at commit.
class SiloOps final : public TxnOps {
 public:
  SiloOps(SiloEngine* engine, SiloEngine::ThreadCtx* ctx, ThreadStats* stats)
      : engine_(engine), ctx_(ctx), stats_(stats) {}

  const void* Read(TableId table, Key key) override {
    stats_->reads.Inc();
    SiloEngine::Table* t = engine_->db_.table(table);
    SiloEngine::Slot* slot = t == nullptr ? nullptr : t->Lookup(key);
    if (slot == nullptr) return nullptr;
    const uint32_t size = engine_->record_sizes_[table];
    // If we already buffered a write to this record, return our own
    // pending value (read-own-write).
    for (const auto& w : ctx_->write_set) {
      if (w.slot == slot) return w.buf;
    }
    void* copy = ctx_->read_buffer.Allocate(size);
    uint64_t tid = engine_->StableRead(slot, copy, size);
    ctx_->read_set.push_back({slot, tid});
    return copy;
  }

  void* Write(TableId table, Key key) override {
    stats_->writes.Inc();
    SiloEngine::Table* t = engine_->db_.table(table);
    SiloEngine::Slot* slot = t == nullptr ? nullptr : t->Lookup(key);
    assert(slot != nullptr && "Silo requires pre-loaded records");
    if (slot == nullptr) {
      aborted_ = true;
      static thread_local char sink[8];
      return sink;
    }
    const uint32_t size = engine_->record_sizes_[table];
    for (const auto& w : ctx_->write_set) {
      if (w.slot == slot) return w.buf;
    }
    void* buf = ctx_->write_buffer.Allocate(size);
    ctx_->write_set.push_back({slot, buf, size, false});
    return buf;
  }

  void Abort() override { aborted_ = true; }
  bool aborted() const override { return aborted_; }

 private:
  SiloEngine* engine_;
  SiloEngine::ThreadCtx* ctx_;
  ThreadStats* stats_;
  bool aborted_ = false;
};

SiloEngine::SiloEngine(const Catalog& catalog, SiloConfig cfg)
    : catalog_(catalog),
      cfg_([&] {
        if (cfg.threads == 0) cfg.threads = 1;
        return cfg;
      }()),
      db_(catalog_),
      stats_(cfg_.threads) {
  record_sizes_.resize(catalog_.MaxTableId(), 0);
  for (const TableSpec& t : catalog_.tables()) {
    record_sizes_[t.id] = t.record_size;
  }
  for (uint32_t i = 0; i < cfg_.threads; ++i) {
    ctx_.push_back(std::make_unique<ThreadCtx>());
  }
  epoch_thread_ = std::thread([this] { EpochLoop(); });
}

SiloEngine::~SiloEngine() {
  stop_epoch_.store(true, std::memory_order_release);
  if (epoch_thread_.joinable()) epoch_thread_.join();
}

void SiloEngine::EpochLoop() {
  while (!stop_epoch_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(cfg_.epoch_period_us));
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
}

Status SiloEngine::Load(TableId table, Key key, const void* payload) {
  Table* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  return t->Insert(key, payload);
}

uint64_t SiloEngine::StableRead(Slot* slot, void* out,
                                uint32_t size) const {
  // Seqlock read: acquire the TID word, copy the payload with word-wise
  // relaxed atomic loads (a concurrent CommitAttempt may be installing
  // the same payload with word-wise relaxed stores — racing word accesses
  // are both atomic, so this is race-free at the C++ level and needs no
  // TSan suppression), then recheck the TID word; a torn copy fails the
  // recheck and retries.
  SpinWait wait;
  for (;;) {
    uint64_t t1 = slot->header.load(std::memory_order_acquire);
    if (t1 & kLockBit) {
      wait.Pause();
      continue;
    }
    AtomicWordCopyFrom(out, slot->payload(), size);
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t t2 = slot->header.load(std::memory_order_acquire);
    if (t1 == t2) return t1;
    wait.Pause();
  }
}

bool SiloEngine::CommitAttempt(ThreadCtx& ctx) {
  // Phase 1: lock the write set in a global order (slot address order —
  // a fixed total order, so concurrent committers cannot deadlock).
  std::sort(ctx.write_set.begin(), ctx.write_set.end(),
            [](const WriteEntry& a, const WriteEntry& b) {
              return a.slot < b.slot;
            });
  for (auto& w : ctx.write_set) {
    SpinWait wait;
    for (;;) {
      // relaxed: optimistic peek (and CAS failure order) — only the
      // successful acquire CAS orders the critical section.
      uint64_t h = w.slot->header.load(std::memory_order_relaxed);
      if ((h & kLockBit) == 0 &&
          w.slot->header.compare_exchange_weak(h, h | kLockBit,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed)) {
        w.locked = true;
        break;
      }
      wait.Pause();
    }
  }

  // Phase 2: validate the read set.
  bool valid = true;
  for (const auto& r : ctx.read_set) {
    uint64_t h = r.slot->header.load(std::memory_order_acquire);
    if ((h & ~kLockBit) != (r.tid & ~kLockBit)) {
      valid = false;
      break;
    }
    if (h & kLockBit) {
      // Locked: only acceptable when we hold the lock ourselves.
      bool ours = false;
      for (const auto& w : ctx.write_set) {
        if (w.slot == r.slot) {
          ours = true;
          break;
        }
      }
      if (!ours) {
        valid = false;
        break;
      }
    }
  }

  if (!valid) {
    for (auto& w : ctx.write_set) {
      if (w.locked) {
        // relaxed: we hold the lock bit, so no other thread can be
        // writing the header; the release store hands it back.
        uint64_t h = w.slot->header.load(std::memory_order_relaxed);
        w.slot->header.store(h & ~kLockBit, std::memory_order_release);
        w.locked = false;
      }
    }
    return false;
  }

  // Phase 3: compute the commit TID — greater than every observed TID,
  // greater than this thread's previous TID, and within the current epoch
  // (decentralized: no shared counter).
  uint64_t max_tid = ctx.last_tid;
  for (const auto& r : ctx.read_set) {
    max_tid = std::max(max_tid, r.tid & ~kLockBit);
  }
  for (const auto& w : ctx.write_set) {
    // relaxed: we hold this slot's lock bit, so the header is stable;
    // only its numeric value feeds the TID computation.
    max_tid =
        std::max(max_tid, w.slot->header.load(std::memory_order_relaxed) &
                              ~kLockBit);
  }
  uint64_t commit_tid = max_tid + 2;  // +2 keeps the lock bit clear
  uint64_t epoch_floor = epoch_.load(std::memory_order_acquire)
                         << kEpochShift;
  if (commit_tid < epoch_floor) commit_tid = epoch_floor + 2;
  ctx.last_tid = commit_tid;

  // Install writes and release locks by publishing the new TID. The
  // payload copy is word-wise relaxed atomic stores (the seqlock write
  // side — see StableRead); the TID release-store publishes it.
  for (auto& w : ctx.write_set) {
    AtomicWordCopyTo(w.slot->payload(), w.buf, w.size);
    w.slot->header.store(commit_tid, std::memory_order_release);
    w.locked = false;
  }
  return true;
}

void SiloEngine::Backoff(ThreadCtx& ctx) {
  uint32_t shift = std::min(ctx.consecutive_aborts, 16u);
  uint64_t us = std::min<uint64_t>(kBackoffMinUs << shift, kBackoffMaxUs);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

Status SiloEngine::Execute(StoredProcedure& proc, uint32_t thread_id) {
  if (thread_id >= cfg_.threads) {
    return Status::InvalidArgument("bad thread id");
  }
  BOHM_RETURN_NOT_OK(db_.CheckFootprint(proc.rwset()));
  ThreadCtx& ctx = *ctx_[thread_id];
  ThreadStats& st = stats_.Slice(thread_id);

  for (;;) {
    ctx.read_set.clear();
    ctx.write_set.clear();
    ctx.write_buffer.Reset();
    ctx.read_buffer.Reset();

    SiloOps ops(this, &ctx, &st);
    proc.Run(ops);
    if (ops.aborted()) {
      st.logic_aborts.Inc();
      return Status::Aborted("transaction logic aborted");
    }

    if (CommitAttempt(ctx)) {
      ctx.consecutive_aborts = 0;
      st.commits.Inc();
      return Status::OK();
    }
    st.cc_aborts.Inc();
    st.retries.Inc();
    ++ctx.consecutive_aborts;
    Backoff(ctx);
  }
}

Status SiloEngine::ReadLatest(TableId table, Key key, void* out) const {
  Table* t = db_.table(table);
  Slot* slot = t == nullptr ? nullptr : t->Lookup(key);
  if (slot == nullptr) return Status::NotFound("no such record");
  StableRead(slot, out, record_sizes_[table]);
  return Status::OK();
}

}  // namespace bohm
