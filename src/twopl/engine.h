// Deadlock-free two-phase locking over single-version storage — the
// paper's strongest single-version pessimistic baseline (Section 4).
// Advance knowledge of read/write sets is exploited twice, exactly as the
// paper describes: locks are acquired in lexicographic order (no
// deadlocks, hence no detector), and no lock state is allocated while a
// transaction runs. Each record's reader-writer lock is its slot header
// (SVTable), so latching is per record and every lock exists from the
// table's construction on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/stable_buffer.h"
#include "common/spin.h"
#include "common/stats.h"
#include "storage/database.h"
#include "storage/sv_table.h"
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

  /// Inserts an initial record. Single-threaded, before first Execute.
  Status Load(TableId table, Key key, const void* payload) override;

  Status Execute(StoredProcedure& proc, uint32_t thread_id) override;
  uint32_t worker_threads() const override { return cfg_.threads; }
  StatsSnapshot Stats() const override { return stats_.Fold(); }
  const char* name() const override { return "2PL"; }

  Status ReadLatest(TableId table, Key key, void* out) const override;

 private:
  friend class TwoPLOps;

  /// The slot header is the record's lock: a reader-writer spinlock with
  /// yielding back-off (threads in this implementation busy-wait instead
  /// of context-switching, like the paper's non-blocking executors).
  using Table = SVTable<RWSpinLock>;
  using Slot = Table::Slot;

  struct Acquired {
    Slot* slot;
    bool exclusive;
  };
  struct UndoEntry {
    Slot* slot;
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
  Database<Table> db_;
  std::vector<uint32_t> record_sizes_;
  std::vector<std::unique_ptr<ThreadCtx>> ctx_;
  StatsRegistry stats_;
};

}  // namespace bohm
