// Quickstart: define a table, write a stored procedure, run it through
// the Bohm engine.
//
//   cmake --build build && ./build/examples/quickstart
//
// Demonstrates the full public API surface in ~80 lines: Catalog /
// TableSpec, StoredProcedure with a declared read/write set, BohmConfig,
// Load / Start / Submit / WaitForIdle / Stop, and engine statistics.
#include <cstdio>
#include <cstring>

#include "bohm/engine.h"

using namespace bohm;

namespace {

constexpr TableId kAccounts = 0;

// A stored procedure declares its footprint in the constructor (Bohm needs
// the write-set before execution; the read-set enables the annotation
// optimization) and implements Run() against the engine-provided TxnOps.
class PayInterest final : public StoredProcedure {
 public:
  PayInterest(Key account, uint64_t rate_percent)
      : account_(account), rate_(rate_percent) {
    set_.AddRmw(kAccounts, account);  // read-modify-write of one record
  }

  void Run(TxnOps& ops) override {
    uint64_t balance = 0;
    const void* current = ops.Read(kAccounts, account_);
    if (current != nullptr) std::memcpy(&balance, current, sizeof(balance));
    balance += balance * rate_ / 100;
    void* next = ops.Write(kAccounts, account_);
    std::memcpy(next, &balance, sizeof(balance));
  }

 private:
  Key account_;
  uint64_t rate_;
};

}  // namespace

int main() {
  // 1. Describe the schema: one table of 8-byte records.
  TableSpec accounts;
  accounts.id = kAccounts;
  accounts.name = "accounts";
  accounts.record_size = 8;
  accounts.capacity = 1024;
  Catalog catalog({accounts});

  // 2. Configure the engine: m concurrency-control threads, n execution
  //    threads, batched coordination (see the paper, Section 3).
  BohmConfig config;
  config.cc_threads = 2;
  config.exec_threads = 2;
  config.batch_size = 64;

  BohmEngine engine(catalog, config);

  // 3. Load initial data (before Start).
  for (Key account = 0; account < 10; ++account) {
    uint64_t initial = 1000 * (account + 1);
    Status s = engine.Load(kAccounts, account, &initial);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 4. Start the pipeline and submit transactions.
  if (Status s = engine.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (int round = 0; round < 3; ++round) {
    for (Key account = 0; account < 10; ++account) {
      (void)engine.Submit(std::make_unique<PayInterest>(account, 5));
    }
  }
  engine.WaitForIdle();

  // 5. Inspect results.
  std::printf("account  balance\n");
  for (Key account = 0; account < 10; ++account) {
    uint64_t balance = 0;
    (void)engine.ReadLatest(kAccounts, account, &balance);
    std::printf("%7llu  %llu\n", static_cast<unsigned long long>(account),
                static_cast<unsigned long long>(balance));
  }
  StatsSnapshot stats = engine.Stats();
  std::printf("\nall %llu transactions committed, zero aborts — Bohm is "
              "pessimistic and serializable.\n",
              static_cast<unsigned long long>(stats.commits));

  engine.Stop();
  return 0;
}
