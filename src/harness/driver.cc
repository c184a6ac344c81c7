#include "harness/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/spin.h"

namespace bohm {

namespace {

using Clock = std::chrono::steady_clock;

// The one window loop. `threads` workers each call step(t, source()) until
// the run ends (or step returns false). At both window edges every worker
// parks, then `drain` (if set) and `snapshot` run, so every counter of the
// result covers exactly the window's transactions. The window closes when
// `pause` is set, as a worker then finishes at most the transaction it is
// in; a drain commits a whole input queue of window submissions, so its
// time counts too.
//
// Thread-safety: no locks (docs/CONCURRENCY.md). A worker increments
// `parked` after its last step and the main thread loads it before
// `snapshot`, which may therefore read what workers write (the executor
// histograms) until `pause` is cleared. Setting `pause` then counting
// `parked` (main) against leaving `parked` then testing `pause` (worker)
// is a store-load pair on each side, so those four accesses are seq_cst:
// a worker still counted as parked cannot miss `pause` and run a step.
template <typename Step, typename Snapshot>
BenchResult RunWindow(uint32_t threads, const TxnSourceMaker& maker,
                      const DriverOptions& opt, Step step,
                      const std::function<void()>& drain, Snapshot snapshot) {
  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  std::atomic<uint32_t> parked{0};
  std::atomic<uint32_t> alive{threads};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      TxnSource source = maker(t);
      while (!stop.load(std::memory_order_acquire)) {
        if (pause.load()) {
          parked.fetch_add(1);
          SpinWait wait;
          while (pause.load(std::memory_order_acquire) &&
                 !stop.load(std::memory_order_acquire)) {
            wait.Pause();
          }
          parked.fetch_sub(1);
          continue;
        }
        if (!step(t, source())) break;
      }
      alive.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  // Returns when the window closed.
  auto quiesce = [&] {
    pause.store(true);
    Clock::time_point closed = Clock::now();
    SpinWait wait;
    while (parked.load() < alive.load(std::memory_order_acquire)) {
      wait.Pause();
    }
    if (drain) {
      drain();
      closed = Clock::now();
    }
    return closed;
  };

  std::this_thread::sleep_for(std::chrono::milliseconds(opt.warmup_ms));
  quiesce();
  const StatsSnapshot before = snapshot();
  const auto t0 = Clock::now();
  pause.store(false, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.measure_ms));
  const auto t1 = quiesce();
  const StatsSnapshot after = snapshot();

  stop.store(true, std::memory_order_release);
  pause.store(false, std::memory_order_release);
  for (auto& w : workers) w.join();
  BenchResult r;
  static_cast<StatsSnapshot&>(r) = after - before;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

BenchResult RunExecutorBench(ExecutorEngine& engine,
                             const TxnSourceMaker& maker,
                             const DriverOptions& opt) {
  // Executor engines record no latency engine-side: each worker times its
  // own committed Execute() calls, and the snapshot merges the workers'
  // histograms into the engine's counters.
  std::vector<Histogram> latencies(engine.worker_threads());
  return RunWindow(
      engine.worker_threads(), maker, opt,
      [&](uint32_t t, ProcedurePtr proc) {
        const auto s = Clock::now();
        if (engine.Execute(*proc, t).ok()) {
          latencies[t].Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - s)
                  .count()));
        }
        return true;
      },
      nullptr,
      [&] {
        StatsSnapshot s = engine.Stats();
        for (const Histogram& h : latencies) s.latency_us.Merge(h);
        return s;
      });
}

BenchResult RunBohmBench(BohmEngine& engine, const TxnSourceMaker& maker,
                         uint32_t client_threads, const DriverOptions& opt) {
  // Submit blocks (yielding) when the pipeline is full, providing natural
  // back-pressure; the snapshot drains the pipeline first, so no window
  // submission commits outside it and no warmup one inside it.
  BenchResult r = RunWindow(
      std::max(client_threads, 1u), maker, opt,
      [&](uint32_t, ProcedurePtr proc) {
        return engine.Submit(std::move(proc)).ok();
      },
      [&] { engine.WaitForIdle(); }, [&] { return engine.Stats(); });
  r.cc_threads = engine.config().cc_threads;
  r.exec_threads = engine.config().exec_threads;
  return r;
}

}  // namespace bohm
