#include "common/stats.h"

#include <sstream>

namespace bohm {

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "commits=" << commits << " cc_aborts=" << cc_aborts
     << " logic_aborts=" << logic_aborts << " retries=" << retries
     << " reads=" << reads << " writes=" << writes;
  if (seq_stall_ns != 0 || seq_idle_ns != 0 || cc_stall_ns != 0 ||
      exec_stall_ns != 0) {
    os << " seq_stall_us=" << seq_stall_ns / 1000
       << " seq_idle_us=" << seq_idle_ns / 1000
       << " cc_stall_us=" << cc_stall_ns / 1000
       << " exec_stall_us=" << exec_stall_ns / 1000;
  }
  return os.str();
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

void StatsRegistry::Reset() {
  for (uint32_t i = 0; i < threads_; ++i) {
    ThreadStats& s = slices_[i];
    s.commits.Reset();
    s.cc_aborts.Reset();
    s.logic_aborts.Reset();
    s.retries.Reset();
    s.reads.Reset();
    s.writes.Reset();
    s.latency_us.Reset();
  }
}

}  // namespace bohm
