// Workload drivers shared by every benchmark binary and the integration
// tests.
//
// Two engine shapes exist (mirroring the paper's Section 4 methodology):
//  * executor engines (2PL, OCC, Hekaton, SI) run transactions on the
//    submitting thread — the driver spawns N closed-loop worker threads;
//  * Bohm is pipelined — the driver spawns client threads that feed the
//    sequencer's input queue while the engine's own threads do the work.
//
// Throughput is measured over a timed window after a warmup, as the
// difference of engine counter snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/histogram.h"
#include "common/stats.h"
#include "bohm/engine.h"
#include "txn/engine_iface.h"

namespace bohm {

/// A per-thread transaction source: the driver calls the maker once per
/// worker thread; the returned closure owns that thread's generator state.
using TxnSource = std::function<ProcedurePtr()>;
using TxnSourceMaker = std::function<TxnSource(uint32_t thread_id)>;

struct DriverOptions {
  uint32_t warmup_ms = 100;
  uint32_t measure_ms = 300;
};

struct BenchResult {
  double seconds = 0;
  uint64_t commits = 0;
  uint64_t cc_aborts = 0;
  uint64_t logic_aborts = 0;
  /// Per-transaction latency in microseconds over the measurement window.
  /// Executor engines: on-thread latency of each committed Execute() call,
  /// measured by the driver, which also counts `commits` under the same
  /// gate. Bohm: end-to-end submit→commit-ack latency stamped at Submit()
  /// and recorded at commit publication in the execution stage, windowed
  /// between two quiesced snapshots. Either way its count equals
  /// `commits` exactly.
  Histogram latency_us;
  /// Per-stage stall attribution over the window (pipelined engines
  /// only): wall-clock nanoseconds each stage spent waiting on another
  /// stage, summed across the stage's threads. Attributes pipeline wait
  /// to sequencer (slot-reuse back-pressure), CC (feed dry) and
  /// execution (feed dry or CC watermark behind). `seq_idle_ns` is the
  /// sequencer's time starved of input with an empty batch, so a
  /// saturated sequencer (both near 0) reads apart from a starved one.
  uint64_t seq_stall_ns = 0;
  uint64_t seq_idle_ns = 0;
  uint64_t cc_stall_ns = 0;
  uint64_t exec_stall_ns = 0;
  /// Durable-log accounting over the window (zero with durability off):
  /// time the pipeline spent blocked on the log (sequencer on the writer
  /// ring plus execution on the durable-ack gate), and the writer's bytes
  /// / records / fsyncs.
  uint64_t log_stall_ns = 0;
  uint64_t log_bytes = 0;
  uint64_t log_records = 0;
  uint64_t log_fsyncs = 0;
  /// Bohm only: versions the GC recycled over the window, and the CC /
  /// exec thread split the engine ran with (read back from the engine).
  uint64_t gc_freed = 0;
  uint32_t cc_threads = 0;
  uint32_t exec_threads = 0;

  double Throughput() const {
    return seconds > 0 ? static_cast<double>(commits) / seconds : 0.0;
  }
  double AbortRate() const {
    uint64_t attempts = commits + cc_aborts;
    return attempts == 0 ? 0.0
                         : static_cast<double>(cc_aborts) /
                               static_cast<double>(attempts);
  }
  uint64_t P50Us() const { return latency_us.Percentile(0.50); }
  uint64_t P99Us() const { return latency_us.Percentile(0.99); }
  uint64_t P999Us() const { return latency_us.Percentile(0.999); }
};

/// Closed-loop driver: engine.worker_threads() threads each repeatedly
/// generate and Execute transactions until the measurement window closes.
BenchResult RunExecutorBench(ExecutorEngine& engine,
                             const TxnSourceMaker& maker,
                             const DriverOptions& opt);

/// Pipelined driver for Bohm: `client_threads` feeder threads submit
/// transactions (the input queue provides back-pressure) while the
/// engine's sequencer/CC/execution threads process them. The engine must
/// already be started. Both window edges are quiesced (clients parked,
/// pipeline drained) so the commit count, the latency histogram and the
/// wall-clock window describe exactly the same set of transactions —
/// the throughput window includes the closing drain and the opening
/// pipeline re-fill, which is noise of microseconds against the >=100ms
/// windows the benches use.
BenchResult RunBohmBench(BohmEngine& engine, const TxnSourceMaker& maker,
                         uint32_t client_threads, const DriverOptions& opt);

/// Fixed-count variants used by integration tests: run exactly `count`
/// transactions per worker (executor) or `count` in total (Bohm), to
/// completion, and return the elapsed-time result.
BenchResult RunExecutorCount(ExecutorEngine& engine,
                             const TxnSourceMaker& maker,
                             uint64_t count_per_thread);
BenchResult RunBohmCount(BohmEngine& engine, const TxnSourceMaker& maker,
                         uint64_t total_count);

}  // namespace bohm
