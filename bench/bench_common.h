// Shared plumbing for the figure/table benchmarks: construct + load an
// engine, run one measurement point, tear it down. Every point uses a
// fresh engine instance so no state leaks across points (the paper's
// baselines accumulate versions without GC — a fresh engine per point
// also bounds memory).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "bohm/engine.h"
#include "harness/driver.h"
#include "harness/engines.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace bohm {
namespace bench {

/// Exits the bench with status 1, printing `st`, when a load or start
/// failed: carrying on would report a garbage data point.
inline void CheckOk(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

/// Produces one transaction from a per-thread YCSB generator.
using YcsbTxnFn = std::function<ProcedurePtr(YcsbGenerator&)>;

inline TxnSourceMaker YcsbSource(const YcsbConfig& cfg, YcsbTxnFn fn) {
  return [cfg, fn](uint32_t tid) -> TxnSource {
    auto gen = std::make_shared<YcsbGenerator>(cfg, 0x9000 + tid);
    return [gen, fn]() { return fn(*gen); };
  };
}

inline TxnSourceMaker SmallBankSource(const SmallBankConfig& cfg) {
  return [cfg](uint32_t tid) -> TxnSource {
    auto gen = std::make_shared<SmallBankGenerator>(cfg, 0x5b000 + tid);
    return [gen]() { return gen->Make(); };
  };
}

/// One measurement point on a baseline engine.
inline BenchResult YcsbExecutorPoint(EngineKind kind, const YcsbConfig& cfg,
                                     uint32_t threads, const YcsbTxnFn& fn,
                                     const DriverOptions& opt) {
  auto engine = MakeExecutorEngine(kind, YcsbCatalog(cfg), threads);
  CheckOk(YcsbLoad(cfg,
                   [&](TableId t, Key k, const void* p) {
                     return engine->Load(t, k, p);
                   }),
          "YcsbLoad");
  return RunExecutorBench(*engine, YcsbSource(cfg, fn), opt);
}

/// One measurement point on Bohm with `total_threads` split between the
/// CC and execution stages.
inline BenchResult YcsbBohmPoint(const YcsbConfig& cfg,
                                 uint32_t total_threads, const YcsbTxnFn& fn,
                                 const DriverOptions& opt,
                                 BohmConfig* override_cfg = nullptr) {
  BohmConfig bcfg =
      override_cfg != nullptr ? *override_cfg : BohmSplit(total_threads);
  BohmEngine engine(YcsbCatalog(cfg), bcfg);
  CheckOk(YcsbLoad(cfg,
                   [&](TableId t, Key k, const void* p) {
                     return engine.Load(t, k, p);
                   }),
          "YcsbLoad");
  CheckOk(engine.Start(), "BohmEngine::Start");
  BenchResult r = RunBohmBench(engine, YcsbSource(cfg, fn),
                               /*client_threads=*/2, opt);
  engine.Stop();
  return r;
}

inline BenchResult SmallBankExecutorPoint(EngineKind kind,
                                          const SmallBankConfig& cfg,
                                          uint32_t threads,
                                          const DriverOptions& opt) {
  auto engine = MakeExecutorEngine(kind, SmallBankCatalog(cfg), threads);
  CheckOk(SmallBankLoad(cfg,
                        [&](TableId t, Key k, const void* p) {
                          return engine->Load(t, k, p);
                        }),
          "SmallBankLoad");
  return RunExecutorBench(*engine, SmallBankSource(cfg), opt);
}

inline BenchResult SmallBankBohmPoint(const SmallBankConfig& cfg,
                                      uint32_t total_threads,
                                      const DriverOptions& opt) {
  BohmEngine engine(SmallBankCatalog(cfg), BohmSplit(total_threads));
  CheckOk(SmallBankLoad(cfg,
                        [&](TableId t, Key k, const void* p) {
                          return engine.Load(t, k, p);
                        }),
          "SmallBankLoad");
  CheckOk(engine.Start(), "BohmEngine::Start");
  BenchResult r =
      RunBohmBench(engine, SmallBankSource(cfg), /*client_threads=*/2, opt);
  engine.Stop();
  return r;
}

/// The five systems in the paper's plotting order.
struct System {
  std::string label;
  bool is_bohm;
  EngineKind kind;  // valid when !is_bohm
};

inline std::vector<System> AllSystems() {
  return {{"2PL", false, EngineKind::k2PL},
          {"Bohm", true, EngineKind::k2PL},
          {"OCC", false, EngineKind::kOCC},
          {"SI", false, EngineKind::kSI},
          {"Hekaton", false, EngineKind::kHekaton}};
}

}  // namespace bench
}  // namespace bohm
