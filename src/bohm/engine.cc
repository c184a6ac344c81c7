#include "bohm/engine.h"

#include <algorithm>
#include <cstring>

#include "common/affinity.h"
#include "common/hash.h"
#include "common/spin.h"
#include "log/log_reader.h"

namespace bohm {

namespace {

/// Largest version-arena block: a big footprint is carved in several
/// blocks rather than one mapping of its full size.
constexpr uint64_t kMaxVersionBlockBytes = uint64_t{64} << 20;

}  // namespace

BohmEngine::BohmEngine(const Catalog& catalog, BohmConfig cfg)
    : catalog_(catalog),
      cfg_([&] {
        if (cfg.cc_threads == 0) cfg.cc_threads = 1;
        if (cfg.exec_threads == 0) cfg.exec_threads = 1;
        if (cfg.batch_size == 0) cfg.batch_size = 1;
        if (cfg.pipeline_depth < 1) cfg.pipeline_depth = 1;
        if (cfg.max_dependency_depth == 0) cfg.max_dependency_depth = 1;
        if (cfg.durability.env == nullptr) {
          cfg.durability.env = LogEnv::Default();
        }
        return cfg;
      }()),
      // One physical partition of every table per CC thread (Section
      // 3.2.2): CC thread i owns exactly the keys with PartitionOf == i.
      db_(catalog_, cfg_.cc_threads),
      ring_(cfg_.pipeline_depth),
      input_(NextPow2(cfg_.input_queue_capacity < 2 ? 2
                                                    : cfg_.input_queue_capacity)),
      cc_watermark_(cfg_.cc_threads),
      exec_watermark_(cfg_.exec_threads),
      stats_(cfg_.exec_threads) {
  record_sizes_.resize(catalog_.MaxTableId(), 0);
  // Version arenas of an engine with large tables take huge-page blocks
  // sized from each CC thread's share of the large tables' declared
  // footprint; small catalogs keep the default heap blocks.
  uint64_t large_footprint = 0;
  for (const TableSpec& t : catalog_.tables()) {
    record_sizes_[t.id] = t.record_size;
    if (IsLargeTable(t)) large_footprint += VersionFootprintBytes(t);
  }
  const uint64_t share = large_footprint / cfg_.cc_threads;
  const bool huge_versions = share >= kHugePageBytes;
  const size_t version_block =
      huge_versions ? std::min(share, kMaxVersionBlockBytes)
                    : Arena::kDefaultBlockBytes;
  for (uint32_t i = 0; i < cfg_.cc_threads; ++i) {
    cc_state_.push_back(
        std::make_unique<CcState>(version_block, huge_versions));
    cc_stall_.push_back(std::make_unique<StallSlot>());
  }
  for (uint32_t i = 0; i < cfg_.exec_threads; ++i) {
    exec_stall_.push_back(std::make_unique<StallSlot>());
    exec_log_stall_.push_back(std::make_unique<StallSlot>());
  }
  if (cfg_.durability.enabled) {
    log_ = std::make_unique<BatchLog>(
        cfg_.durability.dir, cfg_.durability.env,
        cfg_.durability.segment_bytes, cfg_.durability.sync_every);
  }
}

BohmEngine::~BohmEngine() { Stop(); }

Status BohmEngine::Load(TableId table, Key key, const void* payload) {
  if (life_.started.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Load after Start");
  }
  BohmTable* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  std::atomic<Version*>* head = t->Head(key);
  if (head == nullptr) return Status::InvalidArgument("key beyond capacity");
  // relaxed: Load runs single-threaded before Start.
  if (head->load(std::memory_order_relaxed) != nullptr) {
    return Status::InvalidArgument("duplicate key in load");
  }
  // Allocate from the partition's owner: the CC thread that supersedes
  // this version later retires it into the free lists it came from.
  Version* v = cc_state_[t->PartitionOf(key)]->alloc.Alloc(
      table, record_sizes_[table]);
  if (payload != nullptr) {
    std::memcpy(v->data(), payload, record_sizes_[table]);
  } else {
    std::memset(v->data(), 0, record_sizes_[table]);
  }
  // relaxed: v is thread-private until the head's release store makes
  // it — flags included — visible.
  v->flags.store(kVersionReady, std::memory_order_relaxed);
  head->store(v, std::memory_order_release);
  return Status::OK();
}

Status BohmEngine::Start() {
  if (log_ != nullptr) {
    // A pre-existing log means there is committed history on disk.
    // Starting fresh would restart seqnos and silently fork that history;
    // the caller must either Recover() or point at a clean directory.
    std::vector<std::string> names;
    Status st = cfg_.durability.env->ListDir(cfg_.durability.dir, &names);
    if (st.ok()) {
      for (const std::string& name : names) {
        uint64_t first;
        if (ParseSegmentFileName(name, &first)) {
          return Status::FailedPrecondition(
              "durable log directory is not empty — call Recover() instead "
              "of Start()");
        }
      }
    } else if (!st.IsNotFound()) {
      return st;
    }
  }
  BOHM_RETURN_NOT_OK(StartPipeline(0));
  // Unpinned, and not counted for pinning: it waits on the disk.
  if (log_ != nullptr) threads_.emplace_back([this] { LogLoop(0); });
  return Status::OK();
}

Status BohmEngine::StartPipeline(int64_t log_first_batch) {
  // The cc_interest mask is 64 bits, one per CC thread. A
  // config that would shift past the mask width is rejected instead of
  // silently computing undefined behavior.
  if (cfg_.cc_threads > 64) {
    return Status::InvalidArgument(
        "cc_threads must be <= 64 (the cc_interest mask is 64 bits wide)");
  }
  bool expected = false;
  if (!life_.started.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("already started");
  }
  // relaxed: no pipeline thread exists yet; spawning them orders it.
  life_.log_first_batch.store(log_first_batch, std::memory_order_relaxed);
  if (log_ != nullptr) {
    Status opened = log_->Open();
    if (!opened.ok()) {
      // Roll back the CAS: no pipeline thread was spawned, so leaving
      // started set would let Submit() enqueue transactions nothing
      // ever dequeues (callers would then hang in WaitForIdle).
      life_.started.store(false, std::memory_order_release);
      return opened;
    }
  }
  const bool pin =
      cfg_.pin_threads &&
      ShouldPin(1 + cfg_.cc_threads + cfg_.exec_threads);
  unsigned cpu = 0;
  threads_.emplace_back([this, pin, cpu] {
    if (pin) PinCurrentThreadToCpu(cpu);
    SequencerLoop();
  });
  ++cpu;
  for (uint32_t i = 0; i < cfg_.cc_threads; ++i, ++cpu) {
    threads_.emplace_back([this, i, pin, cpu] {
      if (pin) PinCurrentThreadToCpu(cpu);
      CcLoop(i);
    });
  }
  for (uint32_t i = 0; i < cfg_.exec_threads; ++i, ++cpu) {
    threads_.emplace_back([this, i, pin, cpu] {
      if (pin) PinCurrentThreadToCpu(cpu);
      ExecLoop(i);
    });
  }
  return Status::OK();
}

void BohmEngine::Stop() {
  if (!life_.started.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!life_.stopping.compare_exchange_strong(expected, true)) {
    // Another caller is already stopping; wait for the joins to finish.
    SpinWait wait;
    while (!life_.stopped.load(std::memory_order_acquire)) wait.Pause();
    return;
  }
  // The log thread exits after logging the last sealed batch, with a
  // final sync under every sync_every: a clean shutdown leaves a fully
  // durable log even with records appended since the last sync.
  for (auto& t : threads_) t.join();
  threads_.clear();
  life_.stopped.store(true, std::memory_order_release);
}

// Graceful rejection, never a crash: a transaction the engine cannot take
// (wrong engine state, degraded log, un-replayable or malformed footprint)
// comes back as kRejected and the pipeline is untouched. The sequencer can
// then assume every dequeued transaction is well-formed — the bad-table
// check here is what keeps a stray table id from dereferencing a null
// BohmTable inside the pipeline, and the capacity check a key past its
// table's head array from indexing beyond it.
//
// The same walk over the footprint is the pre-processing of Section 3.2.2:
// it marks which CC threads own a record of the transaction, on the client
// thread, which runs in parallel with the sequencer and already holds the
// procedure's lines.
Status BohmEngine::CheckSubmit(const StoredProcedure* proc,
                               uint64_t* cc_interest) const {
  if (!life_.started.load(std::memory_order_acquire) ||
      life_.stopping.load(std::memory_order_acquire)) {
    return Status::Rejected("engine not running");
  }
  if (log_degraded()) {
    return Status::Rejected("durable log failed; engine is degraded: " +
                            log_->error().ToString());
  }
  if (proc == nullptr) return Status::InvalidArgument("null procedure");
  if (cfg_.durability.enabled && proc->codec_id() == kNotLoggable) {
    // Read-only procedures are admitted but simply absent from the log
    // (skipping them on replay cannot change state); anything that writes
    // must be reproducible from bytes.
    if (!proc->rwset().writes().empty()) {
      return Status::Rejected(
          "procedure writes but has no log codec; a durable engine cannot "
          "accept transactions it could not replay");
    }
  }
  const ReadWriteSet& set = proc->rwset();
  auto known_table = [this](TableId t) {
    return static_cast<size_t>(t) < record_sizes_.size() &&
           record_sizes_[t] != 0;
  };
  // Partition ids are < cc_threads <= 64 (Start() validates), so the
  // shift is always defined.
  uint64_t mask = 0;
  for (const RecordId& rec : set.writes()) {
    if (!known_table(rec.table)) {
      return Status::Rejected("write-set references unknown table");
    }
    const BohmTable& t = *db_.table(rec.table);
    if (rec.key >= t.spec().capacity) {
      return Status::Rejected("write-set key beyond table capacity");
    }
    mask |= 1ull << t.PartitionOf(rec.key);
  }
  for (const RecordId& rec : set.reads()) {
    if (!known_table(rec.table)) {
      return Status::Rejected("read-set references unknown table");
    }
    const BohmTable& t = *db_.table(rec.table);
    if (rec.key >= t.spec().capacity) {
      return Status::Rejected("read-set key beyond table capacity");
    }
    mask |= 1ull << t.PartitionOf(rec.key);
  }
  *cc_interest = mask;
  // Duplicate write-set keys would give one transaction two placeholder
  // versions of the same record, and the one execution fills is not the
  // one published. A quadratic scan is cheapest for the paper's
  // footprints (<= 10 writes); larger ones take Validate's sort, which
  // also rejects duplicate reads.
  const auto& writes = set.writes();
  if (writes.size() > 64) {
    Status valid = set.Validate();
    return valid.ok() ? valid : Status::Rejected(valid.message());
  }
  for (size_t i = 0; i < writes.size(); ++i) {
    for (size_t j = i + 1; j < writes.size(); ++j) {
      if (writes[i].table == writes[j].table &&
          writes[i].key == writes[j].key) {
        return Status::Rejected("duplicate key in write set");
      }
    }
  }
  return Status::OK();
}

Status BohmEngine::Submit(ProcedurePtr proc) {
  uint64_t cc_interest = 0;
  BOHM_RETURN_NOT_OK(CheckSubmit(proc.get(), &cc_interest));
  const ReadWriteSet& set = proc->rwset();
  const auto records =
      static_cast<uint32_t>(set.reads().size() + set.writes().size());
  // The sequencer's batch slot owns the procedure from here on.
  input_.Push(
      InputItem{proc.release(), MonotonicNanos(), cc_interest, records});
  return Status::OK();
}

uint64_t BohmEngine::completed() const { return stats_.FoldCompleted(); }

void BohmEngine::WaitForIdle() {
  SpinWait wait;
  while (completed() < submitted()) {
    wait.Pause();
  }
}

int64_t BohmEngine::Watermark() const { return exec_watermark_.Min(); }

int64_t BohmEngine::CcWatermark() const { return cc_watermark_.Min(); }

StatsSnapshot BohmEngine::Stats() const {
  StatsSnapshot s = stats_.Fold();
  s.seq_stall_ns = seq_stall_.ns.Get();
  s.seq_idle_ns = seq_idle_.ns.Get();
  for (const auto& st : cc_stall_) s.cc_stall_ns += st->ns.Get();
  for (const auto& st : exec_stall_) s.exec_stall_ns += st->ns.Get();
  for (const auto& st : exec_log_stall_) s.log_stall_ns += st->ns.Get();
  if (log_ != nullptr) {
    s.log_bytes = log_->bytes_written();
    s.log_records = log_->records();
    s.log_fsyncs = log_->fsyncs();
  }
  s.gc_freed = gc_freed_versions();
  return s;
}

uint64_t BohmEngine::gc_freed_versions() const {
  uint64_t n = 0;
  for (const auto& s : cc_state_) n += s->freed.Get();
  return n;
}

Status BohmEngine::Recover() {
  if (log_ == nullptr) {
    return Status::FailedPrecondition("Recover without durability enabled");
  }
  if (life_.started.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Recover after Start");
  }
  std::vector<ReplayedBatch> batches;
  BOHM_RETURN_NOT_OK(ReadBatchLog(cfg_.durability.dir, cfg_.durability.env,
                                  &batches, &recovery_stats_));

  // Replay runs the pipeline without the log thread: the batches being
  // replayed are durable by definition, so they are neither logged again
  // nor gated (log_first_batch stays past every batch until replay ends).
  BOHM_RETURN_NOT_OK(StartPipeline(INT64_MAX));
  for (ReplayedBatch& batch : batches) {
    for (ProcedurePtr& proc : batch.txns) {
      BOHM_RETURN_NOT_OK(Submit(std::move(proc)));
    }
  }
  WaitForIdle();
  batches.clear();

  // Deterministic replay note: recovery re-*sequences* rather than
  // re-using the old batch boundaries, which is legal precisely because
  // the replay above preserved the total order — only the (seqno, batch
  // id) correspondence moved. Re-anchor it: the next sealed batch is the
  // log thread's first and must get seqno last_seqno + 1. The release
  // store publishes log_base to the exec threads (rule R6); the log
  // thread is ordered after both by its creation.
  const int64_t first = last_sealed_batch() + 1;
  life_.log_base =
      recovery_stats_.last_seqno + 1 - static_cast<uint64_t>(first);
  life_.log_first_batch.store(first, std::memory_order_release);
  threads_.emplace_back([this, first] { LogLoop(first); });
  return Status::OK();
}

Status BohmEngine::ReadLatest(TableId table, Key key, void* out) const {
  const BohmTable* t = db_.table(table);
  if (t == nullptr) return Status::NotFound("no such table");
  const std::atomic<Version*>* head = t->Head(key);
  if (head == nullptr) return Status::NotFound("key beyond capacity");
  Version* v = head->load(std::memory_order_acquire);
  if (v == nullptr || !v->ready() || v->tombstone()) {
    return Status::NotFound("no visible version");
  }
  std::memcpy(out, v->data(), record_sizes_[table]);
  return Status::OK();
}

}  // namespace bohm
