// Analytics example: the paper's core promise in action — reads never
// block writes (Section 3). A stream of update transactions runs
// continuously while long "analytics" transactions scan the whole table.
// Because every transfer preserves the table total, each scan proves two
// things at once:
//   1. it observed a transactionally-consistent snapshot (the total is
//      exact, never a torn mix of old and new versions), and
//   2. the update stream kept committing while scans ran (the version
//      counters advance between scans).
//
//   ./build/examples/analytics_snapshot
#include <cstdio>
#include <cstring>
#include <vector>

#include "bohm/engine.h"
#include "common/rand.h"
#include "workload/ycsb.h"

using namespace bohm;

namespace {

/// Moves a random amount between two rows (total-preserving).
class Shuffle final : public StoredProcedure {
 public:
  Shuffle(Key a, Key b, uint64_t amount) : a_(a), b_(b), amount_(amount) {
    set_.AddRmw(kYcsbTableId, a);
    set_.AddRmw(kYcsbTableId, b);
  }
  void Run(TxnOps& ops) override {
    uint64_t va = 0, vb = 0;
    std::memcpy(&va, ops.Read(kYcsbTableId, a_), sizeof(va));
    std::memcpy(&vb, ops.Read(kYcsbTableId, b_), sizeof(vb));
    va -= amount_;
    vb += amount_;
    std::memcpy(ops.Write(kYcsbTableId, a_), &va, sizeof(va));
    std::memcpy(ops.Write(kYcsbTableId, b_), &vb, sizeof(vb));
  }

 private:
  Key a_, b_;
  uint64_t amount_;
};

}  // namespace

int main() {
  constexpr uint64_t kRows = 10'000;
  constexpr uint64_t kInitial = 100;

  YcsbConfig cfg;
  cfg.record_count = kRows;
  cfg.record_size = 8;

  BohmConfig bcfg;
  bcfg.cc_threads = 2;
  bcfg.exec_threads = 2;
  bcfg.batch_size = 128;
  BohmEngine engine(YcsbCatalog(cfg), bcfg);
  for (Key k = 0; k < kRows; ++k) {
    (void)engine.Load(kYcsbTableId, k, &kInitial);
  }
  if (!engine.Start().ok()) return 1;

  // Interleave update bursts with full-table analytics scans. The scans
  // carry results we read back afterwards, so they stay caller-owned and
  // go through SubmitBorrowed (Submit()-owned procedures are destroyed
  // once their batch slot is recycled).
  Rng rng(7);
  std::vector<std::unique_ptr<YcsbScanProcedure>> scans;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 2000; ++i) {
      Key a = rng.Uniform(kRows);
      Key b = rng.Uniform(kRows);
      while (b == a) b = rng.Uniform(kRows);
      (void)engine.Submit(
          std::make_unique<Shuffle>(a, b, rng.Uniform(50)));
    }
    std::vector<Key> all(kRows);
    for (Key k = 0; k < kRows; ++k) all[k] = k;
    scans.push_back(std::make_unique<YcsbScanProcedure>(all));
    (void)engine.SubmitBorrowed(scans.back().get());
  }
  engine.WaitForIdle();

  const uint64_t expected = kRows * kInitial;
  bool all_consistent = true;
  std::printf("scan  observed-total  expected  consistent\n");
  for (size_t i = 0; i < scans.size(); ++i) {
    bool ok = scans[i]->observed_sum() == expected;
    all_consistent &= ok;
    std::printf("%4zu  %14llu  %8llu  %s\n", i,
                static_cast<unsigned long long>(scans[i]->observed_sum()),
                static_cast<unsigned long long>(expected),
                ok ? "yes" : "NO");
  }
  StatsSnapshot stats = engine.Stats();
  std::printf("\nupdates + scans all committed: %s\n",
              stats.ToString().c_str());
  std::printf("%s\n", all_consistent
                          ? "every analytics scan saw a perfect snapshot "
                            "while updates flowed — reads never block writes."
                          : "CONSISTENCY VIOLATION");
  engine.Stop();
  return all_consistent ? 0 : 1;
}
