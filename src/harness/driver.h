// Workload drivers shared by every benchmark binary and the integration
// tests.
//
// Two engine shapes exist (mirroring the paper's Section 4 methodology):
//  * executor engines (2PL, OCC, Hekaton, SI) run transactions on the
//    submitting thread — the driver spawns N closed-loop worker threads;
//  * Bohm is pipelined — the driver spawns client threads that feed the
//    sequencer's input queue while the engine's own threads do the work.
//
// Both shapes run one window loop: after a warmup, every driver thread
// parks at each window edge (Bohm also drains its pipeline) before the
// engine is snapshotted, and the result is the difference of the two
// snapshots. Every counter of a result therefore covers the same
// transactions.
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

/// One measurement window: the difference of two quiesced engine
/// snapshots, plus the window's wall-clock length and (Bohm only) the CC /
/// exec thread split the engine ran with. `latency_us` counts exactly
/// `commits` samples: on-thread Execute() latency timed by the driver for
/// executor engines, submit→commit-ack latency recorded by the engine for
/// Bohm.
struct BenchResult : StatsSnapshot {
  double seconds = 0;
  uint32_t cc_threads = 0;
  uint32_t exec_threads = 0;

  double Throughput() const {
    return seconds > 0 ? static_cast<double>(commits) / seconds : 0.0;
  }
  uint64_t P50Us() const { return latency_us.Percentile(0.50); }
  uint64_t P99Us() const { return latency_us.Percentile(0.99); }
  uint64_t P999Us() const { return latency_us.Percentile(0.999); }
};

/// Closed-loop driver: engine.worker_threads() threads each repeatedly
/// generate and Execute transactions until the run ends.
BenchResult RunExecutorBench(ExecutorEngine& engine,
                             const TxnSourceMaker& maker,
                             const DriverOptions& opt);

/// Pipelined driver for Bohm: `client_threads` feeder threads submit
/// transactions (the input queue provides back-pressure) while the
/// engine's sequencer/CC/execution threads process them. The engine must
/// already be started. The window includes the closing drain and the
/// opening pipeline re-fill, so `seconds` exceeds `opt.measure_ms` by up
/// to the time the pipeline takes to empty a full input queue.
BenchResult RunBohmBench(BohmEngine& engine, const TxnSourceMaker& maker,
                         uint32_t client_threads, const DriverOptions& opt);

}  // namespace bohm
