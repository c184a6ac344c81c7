// Banking example: the SmallBank workload (Section 4.3 of the paper)
// running on the Bohm engine, with an audit that demonstrates
// serializability end-to-end: the Balance + Amalgamate mix moves money
// between accounts but never creates or destroys it, so the bank's total
// must be exactly preserved no matter how transactions interleave.
//
//   ./build/examples/banking [customers] [transactions]
#include <cstdio>
#include <cstdlib>

#include "bohm/engine.h"
#include "workload/smallbank.h"

using namespace bohm;

int main(int argc, char** argv) {
  SmallBankConfig cfg;
  cfg.customers = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;
  const uint64_t txns =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20'000;

  const int64_t initial_total =
      static_cast<int64_t>(cfg.customers) *
      (cfg.initial_savings + cfg.initial_checking);

  BohmConfig bcfg;
  bcfg.cc_threads = 2;
  bcfg.exec_threads = 2;
  bcfg.batch_size = 128;
  BohmEngine engine(SmallBankCatalog(cfg), bcfg);

  Status s = SmallBankLoad(cfg, [&](TableId t, Key k, const void* p) {
    return engine.Load(t, k, p);
  });
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!engine.Start().ok()) return 1;

  std::printf("bank open: %llu customers, initial total %lld\n",
              static_cast<unsigned long long>(cfg.customers),
              static_cast<long long>(initial_total));

  SmallBankGenerator gen(cfg, /*seed=*/2026);
  for (uint64_t i = 0; i < txns; ++i) {
    (void)engine.Submit(gen.MakeConserving());
  }
  engine.WaitForIdle();

  // Audit: sum every balance.
  int64_t total = 0;
  for (Key c = 0; c < cfg.customers; ++c) {
    uint64_t savings = 0, checking = 0;
    (void)engine.ReadLatest(kSbSavingsTable, c, &savings);
    (void)engine.ReadLatest(kSbCheckingTable, c, &checking);
    total += static_cast<int64_t>(savings) + static_cast<int64_t>(checking);
  }

  StatsSnapshot stats = engine.Stats();
  std::printf("processed: %llu commits, %llu logic aborts\n",
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.logic_aborts));
  std::printf("audit: final total %lld (expected %lld) -> %s\n",
              static_cast<long long>(total),
              static_cast<long long>(initial_total),
              total == initial_total ? "BALANCED" : "CORRUPT");
  engine.Stop();
  return total == initial_total ? 0 : 1;
}
