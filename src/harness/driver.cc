#include "harness/driver.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/spin.h"

namespace bohm {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

BenchResult Window(const StatsSnapshot& before, const StatsSnapshot& after,
                   double seconds) {
  BenchResult r;
  r.seconds = seconds;
  r.commits = after.commits - before.commits;
  r.cc_aborts = after.cc_aborts - before.cc_aborts;
  r.logic_aborts = after.logic_aborts - before.logic_aborts;
  // Engine-side latency histograms grow monotonically, so the window is
  // the bucket-wise difference of the two snapshots. Empty for executor
  // engines (they record nothing engine-side); RunExecutorBench merges
  // its driver-side per-thread histograms on top.
  r.latency_us = Histogram::Delta(after.latency_us, before.latency_us);
  // Stall attribution is monotone like the counters (zero for executor
  // engines).
  r.seq_stall_ns = after.seq_stall_ns - before.seq_stall_ns;
  r.seq_idle_ns = after.seq_idle_ns - before.seq_idle_ns;
  r.cc_stall_ns = after.cc_stall_ns - before.cc_stall_ns;
  r.exec_stall_ns = after.exec_stall_ns - before.exec_stall_ns;
  r.log_stall_ns = after.log_stall_ns - before.log_stall_ns;
  r.log_bytes = after.log_bytes - before.log_bytes;
  r.log_records = after.log_records - before.log_records;
  r.log_fsyncs = after.log_fsyncs - before.log_fsyncs;
  return r;
}

}  // namespace

BenchResult RunExecutorBench(ExecutorEngine& engine,
                             const TxnSourceMaker& maker,
                             const DriverOptions& opt) {
  const uint32_t threads = engine.worker_threads();
  // Thread-safety: the driver coordinates workers only through these
  // acquire/release flags and per-thread histograms and commit counts
  // (single-writer each, read after join) — no locks, nothing for the
  // static analysis to track (docs/CONCURRENCY.md).
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<Histogram> latencies(threads);
  std::vector<uint64_t> window_commits(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      TxnSource source = maker(t);
      Histogram& lat = latencies[t];
      uint64_t commits = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ProcedurePtr proc = source();
        if (measuring.load(std::memory_order_acquire)) {
          auto s = Clock::now();
          if (engine.Execute(*proc, t).ok()) {
            lat.Record(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - s)
                    .count()));
            ++commits;
          }
        } else {
          (void)engine.Execute(*proc, t);
        }
      }
      window_commits[t] = commits;
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(opt.warmup_ms));
  // The window's commits are counted here, under the same gate as the
  // latency samples, so the histogram count equals `commits` exactly.
  // The engine snapshots cannot give that: workers keep committing
  // between a snapshot and the gate flip.
  StatsSnapshot before = engine.Stats();
  auto t0 = Clock::now();
  measuring.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.measure_ms));
  measuring.store(false, std::memory_order_release);
  StatsSnapshot after = engine.Stats();
  auto t1 = Clock::now();

  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  BenchResult r = Window(before, after, Seconds(t0, t1));
  r.commits = 0;
  for (uint64_t c : window_commits) r.commits += c;
  for (const Histogram& h : latencies) r.latency_us.Merge(h);
  return r;
}

BenchResult RunBohmBench(BohmEngine& engine, const TxnSourceMaker& maker,
                         uint32_t client_threads, const DriverOptions& opt) {
  if (client_threads == 0) client_threads = 1;
  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  std::atomic<uint32_t> parked{0};
  std::atomic<uint32_t> alive{client_threads};
  std::vector<std::thread> clients;
  clients.reserve(client_threads);
  for (uint32_t t = 0; t < client_threads; ++t) {
    clients.emplace_back([&, t] {
      TxnSource source = maker(t);
      while (!stop.load(std::memory_order_acquire)) {
        if (pause.load(std::memory_order_acquire)) {
          parked.fetch_add(1, std::memory_order_acq_rel);
          SpinWait wait;
          while (pause.load(std::memory_order_acquire) &&
                 !stop.load(std::memory_order_acquire)) {
            wait.Pause();
          }
          parked.fetch_sub(1, std::memory_order_acq_rel);
          continue;
        }
        // Submit blocks (yielding) when the pipeline is full, providing
        // natural back-pressure.
        if (!engine.Submit(source()).ok()) break;
      }
      alive.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  // Both window edges are quiescent points: park every client, drain the
  // pipeline, then snapshot. This fixes the pipelined window skew — a
  // transaction submitted during warmup can no longer have its commit
  // land inside the window (and a window submission cannot leak past the
  // closing edge), so the window's commit count, latency-histogram count
  // and wall-clock window all cover exactly the same transactions, at
  // the cost of re-filling the pipeline at the opening edge (microseconds
  // against a >=100ms window).
  auto quiesced_snapshot = [&]() -> StatsSnapshot {
    pause.store(true, std::memory_order_release);
    SpinWait wait;
    while (parked.load(std::memory_order_acquire) <
           alive.load(std::memory_order_acquire)) {
      wait.Pause();
    }
    engine.WaitForIdle();
    return engine.Stats();
  };

  std::this_thread::sleep_for(std::chrono::milliseconds(opt.warmup_ms));
  StatsSnapshot before = quiesced_snapshot();
  const uint64_t gc_before = engine.gc_freed_versions();
  auto t0 = Clock::now();
  pause.store(false, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.measure_ms));
  StatsSnapshot after = quiesced_snapshot();
  const uint64_t gc_after = engine.gc_freed_versions();
  auto t1 = Clock::now();

  stop.store(true, std::memory_order_release);
  pause.store(false, std::memory_order_release);
  for (auto& c : clients) c.join();
  engine.WaitForIdle();
  BenchResult r = Window(before, after, Seconds(t0, t1));
  r.gc_freed = gc_after - gc_before;
  r.cc_threads = engine.config().cc_threads;
  r.exec_threads = engine.config().exec_threads;
  return r;
}

BenchResult RunExecutorCount(ExecutorEngine& engine,
                             const TxnSourceMaker& maker,
                             uint64_t count_per_thread) {
  const uint32_t threads = engine.worker_threads();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  StatsSnapshot before = engine.Stats();
  auto t0 = std::chrono::steady_clock::now();
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      TxnSource source = maker(t);
      for (uint64_t i = 0; i < count_per_thread; ++i) {
        ProcedurePtr proc = source();
        (void)engine.Execute(*proc, t);
      }
    });
  }
  for (auto& w : workers) w.join();
  auto t1 = std::chrono::steady_clock::now();
  return Window(before, engine.Stats(), Seconds(t0, t1));
}

BenchResult RunBohmCount(BohmEngine& engine, const TxnSourceMaker& maker,
                         uint64_t total_count) {
  TxnSource source = maker(0);
  StatsSnapshot before = engine.Stats();
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < total_count; ++i) {
    (void)engine.Submit(source());
  }
  engine.WaitForIdle();
  auto t1 = std::chrono::steady_clock::now();
  return Window(before, engine.Stats(), Seconds(t0, t1));
}

}  // namespace bohm
