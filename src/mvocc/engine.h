// Hekaton-style multi-version concurrency control (optimistic variant of
// Larson et al. [21]) and Snapshot Isolation, sharing one codebase exactly
// as the paper's evaluation does (Section 4):
//
//  * A global 64-bit counter issues begin and end timestamps with atomic
//    fetch-and-increment — at least two increments per transaction. This
//    is deliberately faithful to the baseline; it is the scalability
//    bottleneck Figures 6, 7 and 10 expose.
//  * Writers tag the End field of the version they supersede
//    (first-updater-wins write-write conflicts) and install the new
//    version with a transaction-tagged Begin field.
//  * Readers never block: they read the version visible as of their begin
//    timestamp, speculatively reading Preparing transactions' versions
//    under a commit dependency.
//  * In Hekaton mode, reads are validated at precommit ("Validate Reads",
//    Section 2.2): every read must still be visible as of the end
//    timestamp, otherwise the transaction aborts and is retried.
//    In SI mode there is no read validation — write skew is permitted.
//  * Versions are never garbage collected, matching the paper's
//    configuration of these baselines.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"
#include "common/stats.h"
#include "storage/database.h"
#include "txn/engine_iface.h"
#include "mvocc/mv_record.h"
#include "mvocc/mv_txn.h"

namespace bohm {

enum class MVOccMode {
  kHekaton,  // serializable: validate reads at precommit
  kSnapshotIsolation,
};

struct MVOccConfig {
  MVOccMode mode = MVOccMode::kHekaton;
  uint32_t threads = 1;
  /// Allow speculative reads of Preparing transactions' versions under
  /// commit dependencies (the paper's baselines enable this).
  bool commit_dependencies = true;
};

class MVOccEngine final : public ExecutorEngine {
 public:
  MVOccEngine(const Catalog& catalog, MVOccConfig cfg);
  ~MVOccEngine() override;
  BOHM_DISALLOW_COPY_AND_ASSIGN(MVOccEngine);

  /// Inserts an initial record (timestamp-0 version). Single-threaded,
  /// before first Execute.
  Status Load(TableId table, Key key, const void* payload) override;

  Status Execute(StoredProcedure& proc, uint32_t thread_id) override;
  uint32_t worker_threads() const override { return cfg_.threads; }
  StatsSnapshot Stats() const override { return stats_.Fold(); }
  const char* name() const override {
    return cfg_.mode == MVOccMode::kHekaton ? "Hekaton" : "SI";
  }

  Status ReadLatest(TableId table, Key key, void* out) const override;

  /// Current value of the global timestamp counter (test hook; the paper's
  /// point is that this number grows by >= 2 per transaction).
  // relaxed: monotonic counter sampled for reporting only; no other data
  // is synchronized through this read.
  uint64_t clock() const { return clock_.load(std::memory_order_relaxed); }

  /// Test hook: runs on the executing thread after a transaction has
  /// drawn its end timestamp and before it publishes it, so a hook that
  /// blocks parks the transaction inside that window. Install before the
  /// first Execute.
  void set_end_ts_hook(
      std::function<void(uint32_t thread_id, uint64_t end_ts)> hook) {
    end_ts_hook_ = std::move(hook);
  }

 private:
  friend class MVOps;

  struct alignas(kCacheLineSize) ThreadCtx {
    Arena version_arena{1u << 20};
    /// Keeps transaction objects alive for the engine's lifetime: version
    /// Begin/End fields hold raw MVTxn pointers until postprocessing, and
    /// a concurrent reader may dereference one at any time. (A production
    /// system would recycle them under epoch protection; the paper's
    /// prototypes also keep it simple by never reclaiming versions.)
    std::vector<std::unique_ptr<MVTxn>> graveyard;
    std::unique_ptr<char[]> scratch;  // returned after internal aborts
  };

  MVVersion* AllocVersion(ThreadCtx& ctx, TableId table);
  MVTxn* BeginTxn(ThreadCtx& ctx);

  /// Returns the version of `slot` visible to `txn` as of its begin
  /// timestamp (registering commit dependencies for speculative reads),
  /// or nullptr when no version is visible.
  MVVersion* VisibleVersion(MVRecordSlot* slot, MVTxn* txn);

  /// First-updater-wins write path; returns the installed version or
  /// nullptr on a write-write conflict.
  MVVersion* InstallWrite(MVRecordSlot* slot, MVTxn* txn, TableId table,
                          ThreadCtx& ctx);

  bool ValidateReads(MVTxn* txn);
  /// Waits for registered commit dependencies; false if any aborted.
  bool WaitForDependencies(MVTxn* txn);
  void UndoWrites(MVTxn* txn);
  void Postprocess(MVTxn* txn);

  Catalog catalog_;
  MVOccConfig cfg_;
  Database<MVTable> db_;
  std::vector<uint32_t> record_sizes_;
  std::vector<std::unique_ptr<ThreadCtx>> ctx_;
  StatsRegistry stats_;

  std::function<void(uint32_t, uint64_t)> end_ts_hook_;

  /// THE global timestamp counter (Section 2.1).
  alignas(kCacheLineSize) std::atomic<uint64_t> clock_{1};
};

}  // namespace bohm
