// Deadlock-free two-phase locking over single-version storage — the
// paper's strongest single-version pessimistic baseline (Section 4).
// Advance knowledge of read/write sets is exploited twice, exactly as the
// paper describes: locks are acquired in lexicographic order (no
// deadlocks, hence no detector), and every lock-table entry needed is
// allocated before the transaction runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/stable_buffer.h"
#include "common/stats.h"
#include "storage/sv_table.h"
#include "twopl/lock_table.h"
#include "txn/engine_iface.h"

namespace bohm {

struct TwoPLConfig {
  uint32_t threads = 1;
};

class TwoPLEngine final : public ExecutorEngine {
 public:
  TwoPLEngine(const Catalog& catalog, TwoPLConfig cfg);
  ~TwoPLEngine() override = default;
  BOHM_DISALLOW_COPY_AND_ASSIGN(TwoPLEngine);

  /// Inserts an initial record and pre-creates its lock entry.
  /// Single-threaded, before first Execute.
  Status Load(TableId table, Key key, const void* payload) override;

  Status Execute(StoredProcedure& proc, uint32_t thread_id) override;
  uint32_t worker_threads() const override { return cfg_.threads; }
  StatsSnapshot Stats() const override { return stats_.Fold(); }
  const char* name() const override { return "2PL"; }

  Status ReadLatest(TableId table, Key key, void* out) const override;

  LockTable& lock_table() { return locks_; }

 private:
  friend class TwoPLOps;

  struct Acquired {
    LockEntry* entry;
    bool exclusive;
  };
  struct UndoEntry {
    SVSlot* slot;
    void* saved;
    uint32_t size;
  };
  struct alignas(kCacheLineSize) ThreadCtx {
    std::vector<Acquired> held;
    std::vector<UndoEntry> undo;
    StableBuffer undo_buffer;
  };

  Catalog catalog_;
  TwoPLConfig cfg_;
  SVDatabase db_;
  LockTable locks_;
  std::vector<uint32_t> record_sizes_;
  std::vector<std::unique_ptr<ThreadCtx>> ctx_;
  StatsRegistry stats_;
};

}  // namespace bohm
