// Shared helpers for engine tests: small catalogs, arithmetic procedures
// with declared footprints, bounded waits, a bounded executor-engine
// Execute and a synchronous Bohm submit,
// the comparison of an engine with the serial oracle, and a timed
// rendezvous used to force genuine transaction overlap in the anomaly
// tests.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bohm/engine.h"
#include "perfbench/oracle.h"
#include "storage/schema.h"
#include "txn/engine_iface.h"
#include "txn/procedure.h"

namespace bohm {
namespace testutil {

/// Catalog with one table (id 0) of 8-byte records.
inline Catalog OneTable(uint64_t capacity, TableId id = 0) {
  TableSpec spec;
  spec.id = id;
  // Not "t" + to_string(id): GCC 12 at -O3 reports a false -Wrestrict
  // for a string assigned or prefixed from a literal.
  spec.name = std::string("t").append(std::to_string(id));
  spec.record_size = 8;
  spec.capacity = capacity;
  Catalog c;
  (void)c.AddTable(std::move(spec));
  return c;
}

/// Yield-waits until `pred()` holds or `timeout_ms` elapses; returns
/// whether the predicate held, so a broken pipeline fails the test
/// instead of hanging the binary until the CTest timeout.
template <typename Pred>
bool WaitUntil(Pred pred, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// BohmEngine::WaitForIdle() with a deadline. If the engine has not
/// acknowledged every submitted transaction by then, the running test
/// fails with the pipeline's hand-off state, and the process exits: a
/// wedged engine's threads can never be joined, so neither the test nor
/// the engine's destructor could return.
inline void WaitForIdle(const BohmEngine& engine, int timeout_ms = 60000) {
  if (WaitUntil([&] { return engine.completed() >= engine.submitted(); },
                timeout_ms)) {
    return;
  }
  ADD_FAILURE() << "engine not idle after " << timeout_ms
                << " ms: submitted " << engine.submitted() << ", completed "
                << engine.completed() << ", last sealed batch "
                << engine.last_sealed_batch() << ", CC watermark "
                << engine.CcWatermark() << ", exec watermark "
                << engine.Watermark();
  std::fflush(stdout);
  std::_Exit(1);
}

/// ExecutorEngine::Execute with a deadline: the call runs on a helper
/// thread. If it has not returned by then (an engine that retries the
/// transaction forever), the running test fails and the process exits,
/// as in WaitForIdle: the helper thread can never be joined.
inline Status ExecuteWithDeadline(ExecutorEngine& engine,
                                  StoredProcedure& proc,
                                  uint32_t thread_id = 0,
                                  int timeout_ms = 10000) {
  std::atomic<bool> done{false};
  Status result;
  std::thread runner([&] {
    result = engine.Execute(proc, thread_id);
    done.store(true, std::memory_order_release);
  });
  if (!WaitUntil([&] { return done.load(std::memory_order_acquire); },
                 timeout_ms)) {
    ADD_FAILURE() << engine.name() << ": Execute did not return after "
                  << timeout_ms << " ms, after " << engine.Stats().retries
                  << " retries";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
  return result;
}

/// Submits `proc` and waits until the engine has executed it.
inline Status RunSync(BohmEngine& engine, ProcedurePtr proc) {
  BOHM_RETURN_NOT_OK(engine.Submit(std::move(proc)));
  WaitForIdle(engine);
  return Status::OK();
}

/// A workload loader's sink that loads each record into both `engine`
/// and `oracle`.
template <typename Engine>
auto LoadBoth(Engine& engine, perfbench::SerialOracle& oracle) {
  return [&engine, &oracle](TableId table, Key key, const void* payload) {
    BOHM_RETURN_NOT_OK(engine.Load(table, key, payload));
    return oracle.Load(table, key, payload);
  };
}

/// Serial equivalence: the quiescent `engine` holds exactly the oracle's
/// state on every record of every table in `catalog`, byte for byte (a
/// record absent from one is absent from the other), and committed and
/// logic-aborted as many transactions. The oracle ran the same procedures
/// one at a time in the engine's serial order (submission order with one
/// client, or the log's order on recovery).
template <typename Engine>
void ExpectMatchesOracle(const Engine& engine,
                         const perfbench::SerialOracle& oracle,
                         const Catalog& catalog) {
  for (const TableSpec& spec : catalog.tables()) {
    std::vector<char> record(spec.record_size);
    for (Key k = 0; k < spec.capacity; ++k) {
      const char* want = oracle.Get(spec.id, k);
      const bool found = engine.ReadLatest(spec.id, k, record.data()).ok();
      ASSERT_EQ(found, want != nullptr) << "table " << spec.id << " key " << k;
      if (!found || std::memcmp(record.data(), want, spec.record_size) == 0) {
        continue;
      }
      uint32_t byte = 0;
      while (record[byte] == want[byte]) ++byte;
      FAIL() << "table " << spec.id << " key " << k << " differs at byte "
             << byte;
    }
  }
  const StatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.commits, oracle.commits());
  EXPECT_EQ(stats.logic_aborts, oracle.logic_aborts());
}

inline uint64_t ReadU64(TxnOps& ops, TableId t, Key k, bool* found = nullptr) {
  const void* p = ops.Read(t, k);
  if (found != nullptr) *found = (p != nullptr);
  uint64_t v = 0;
  if (p != nullptr) std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void WriteU64(TxnOps& ops, TableId t, Key k, uint64_t v) {
  void* p = ops.Write(t, k);
  if (p != nullptr) std::memcpy(p, &v, sizeof(v));
}

/// Moves `amount` from `src` to `dst` (no balance check): the sum of the
/// two records is invariant — the atomicity observable used by several
/// tests.
class TransferProcedure final : public StoredProcedure {
 public:
  TransferProcedure(TableId table, Key src, Key dst, uint64_t amount)
      : table_(table), src_(src), dst_(dst), amount_(amount) {
    set_.AddRmw(table, src);
    set_.AddRmw(table, dst);
  }
  void Run(TxnOps& ops) override {
    uint64_t s = ReadU64(ops, table_, src_);
    uint64_t d = ReadU64(ops, table_, dst_);
    WriteU64(ops, table_, src_, s - amount_);
    WriteU64(ops, table_, dst_, d + amount_);
  }

 private:
  TableId table_;
  Key src_, dst_;
  uint64_t amount_;
};

/// Reads two records and stores the sum of their values to `*sum` when
/// `sum` is non-null (snapshot-consistency probe).
class ReadPairProcedure final : public StoredProcedure {
 public:
  ReadPairProcedure(TableId table, Key a, Key b, uint64_t* sum)
      : table_(table), a_(a), b_(b), sum_(sum) {
    set_.AddRead(table, a);
    set_.AddRead(table, b);
  }
  void Run(TxnOps& ops) override {
    const uint64_t sum = ReadU64(ops, table_, a_) + ReadU64(ops, table_, b_);
    if (sum_ != nullptr) *sum_ = sum;
  }

 private:
  TableId table_;
  Key a_, b_;
  uint64_t* sum_;
};

/// dst := src * factor — the building block of the write-skew tests
/// (reads one record, blind-writes another).
class MulWriteProcedure final : public StoredProcedure {
 public:
  MulWriteProcedure(TableId table, Key src, Key dst, uint64_t factor)
      : table_(table), src_(src), dst_(dst), factor_(factor) {}
  void Init() {
    set_.AddRead(table_, src_);
    set_.AddWrite(table_, dst_);
  }
  void Run(TxnOps& ops) override {
    uint64_t s = ReadU64(ops, table_, src_);
    BeforeWrite();
    WriteU64(ops, table_, dst_, s * factor_);
  }

 protected:
  /// Hook for rendezvous subclasses.
  virtual void BeforeWrite() {}

  TableId table_;
  Key src_, dst_;
  uint64_t factor_;
};

/// Helper to construct MulWriteProcedure with its footprint declared.
inline ProcedurePtr MakeMulWrite(TableId table, Key src, Key dst,
                                 uint64_t factor) {
  auto p = std::make_unique<MulWriteProcedure>(table, src, dst, factor);
  p->Init();
  return p;
}

/// Increments a record then aborts: the record must be unchanged.
class AbortingIncrement final : public StoredProcedure {
 public:
  AbortingIncrement(TableId table, Key key) : table_(table), key_(key) {
    set_.AddRmw(table, key);
  }
  void Run(TxnOps& ops) override {
    uint64_t v = ReadU64(ops, table_, key_);
    WriteU64(ops, table_, key_, v + 1000);
    ops.Abort();
  }

 private:
  TableId table_;
  Key key_;
};

/// A timed rendezvous: each arriver waits (yielding) until `expected`
/// participants arrived or the deadline passes. Retried executions pass
/// straight through (the count only grows).
class Rendezvous {
 public:
  explicit Rendezvous(int expected) : expected_(expected) {}

  void Arrive() {
    arrivals_.fetch_add(1, std::memory_order_acq_rel);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (arrivals_.load(std::memory_order_acquire) < expected_ &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }

  bool Overlapped() const {
    return arrivals_.load(std::memory_order_acquire) >= expected_;
  }

 private:
  const int expected_;
  std::atomic<int> arrivals_{0};
};

/// MulWrite that rendezvouses between its read and its write, forcing two
/// such transactions to overlap (the write-skew window).
class RendezvousMulWrite final : public StoredProcedure {
 public:
  RendezvousMulWrite(TableId table, Key src, Key dst, uint64_t factor,
                     Rendezvous* rv)
      : table_(table), src_(src), dst_(dst), factor_(factor), rv_(rv) {
    set_.AddRead(table, src);
    set_.AddWrite(table, dst);
  }
  void Run(TxnOps& ops) override {
    uint64_t s = ReadU64(ops, table_, src_);
    rv_->Arrive();
    WriteU64(ops, table_, dst_, s * factor_);
  }

 private:
  TableId table_;
  Key src_, dst_;
  uint64_t factor_;
  Rendezvous* rv_;
};

}  // namespace testutil
}  // namespace bohm
