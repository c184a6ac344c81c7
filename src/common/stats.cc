#include "common/stats.h"

namespace bohm {

StatsSnapshot operator-(const StatsSnapshot& later,
                        const StatsSnapshot& earlier) {
  StatsSnapshot d;
  d.commits = later.commits - earlier.commits;
  d.cc_aborts = later.cc_aborts - earlier.cc_aborts;
  d.logic_aborts = later.logic_aborts - earlier.logic_aborts;
  d.retries = later.retries - earlier.retries;
  d.reads = later.reads - earlier.reads;
  d.writes = later.writes - earlier.writes;
  d.latency_us = Histogram::Delta(later.latency_us, earlier.latency_us);
  d.seq_stall_ns = later.seq_stall_ns - earlier.seq_stall_ns;
  d.seq_idle_ns = later.seq_idle_ns - earlier.seq_idle_ns;
  d.cc_stall_ns = later.cc_stall_ns - earlier.cc_stall_ns;
  d.exec_stall_ns = later.exec_stall_ns - earlier.exec_stall_ns;
  d.log_stall_ns = later.log_stall_ns - earlier.log_stall_ns;
  d.log_bytes = later.log_bytes - earlier.log_bytes;
  d.log_records = later.log_records - earlier.log_records;
  d.log_fsyncs = later.log_fsyncs - earlier.log_fsyncs;
  d.gc_freed = later.gc_freed - earlier.gc_freed;
  return d;
}

// Thread-safety: safe to call concurrently with running workers — each
// slice is single-writer (its own thread), and RelaxedCounter::Get /
// Histogram::MergeInto take monotone acquire snapshots, so Fold returns a
// consistent-enough point-in-time view without stopping anyone.
StatsSnapshot StatsRegistry::Fold() const {
  StatsSnapshot out;
  for (uint32_t i = 0; i < threads_; ++i) {
    const ThreadStats& s = slices_[i];
    out.commits += s.commits.Get();
    out.cc_aborts += s.cc_aborts.Get();
    out.logic_aborts += s.logic_aborts.Get();
    out.retries += s.retries.Get();
    out.reads += s.reads.Get();
    out.writes += s.writes.Get();
    s.latency_us.MergeInto(&out.latency_us);
  }
  return out;
}

uint64_t StatsRegistry::FoldCompleted() const {
  uint64_t out = 0;
  for (uint32_t i = 0; i < threads_; ++i) {
    out += slices_[i].commits.Get() + slices_[i].logic_aborts.Get();
  }
  return out;
}

}  // namespace bohm
