#include "harness/figures.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "workload/hotspot.h"
#include "workload/smallbank.h"

namespace bohm {

namespace {

using Txn = YcsbGenerator::TxnType;

std::string T(uint64_t v) { return std::to_string(v); }

std::string Fixed(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Workload YcsbWith(const YcsbConfig& cfg,
                  std::function<ProcedurePtr(YcsbGenerator&)> make) {
  return {YcsbCatalog(cfg),
          [cfg](const Workload::Sink& sink) { return YcsbLoad(cfg, sink); },
          [cfg, make](uint32_t tid) -> TxnSource {
            auto gen = std::make_shared<YcsbGenerator>(cfg, 0x9000 + tid);
            return [gen, make]() { return make(*gen); };
          }};
}

/// 10RMW updates with `readonly_fraction` long read-only scans mixed in.
Workload YcsbMixed(const YcsbConfig& cfg, double readonly_fraction) {
  return YcsbWith(cfg, [readonly_fraction](YcsbGenerator& g) {
    return g.MakeMixed(readonly_fraction);
  });
}

Workload SmallBank(const SmallBankConfig& cfg) {
  return {SmallBankCatalog(cfg),
          [cfg](const Workload::Sink& sink) {
            return SmallBankLoad(cfg, sink);
          },
          [cfg](uint32_t tid) -> TxnSource {
            auto gen = std::make_shared<SmallBankGenerator>(cfg, 0x5b000 + tid);
            return [gen]() { return gen->Make(); };
          }};
}

Workload Hotspot(const HotspotConfig& cfg) {
  const YcsbConfig table = cfg.Ycsb();
  return {YcsbCatalog(table),
          [table](const Workload::Sink& sink) { return YcsbLoad(table, sink); },
          [cfg](uint32_t tid) -> TxnSource {
            auto gen = std::make_shared<HotspotGenerator>(cfg, 0x407000 + tid);
            return [gen]() { return gen->Make(); };
          }};
}

Point BohmPoint(std::string system, Params params, const Workload& w,
                const BohmConfig& cfg) {
  // Every Bohm point names the split it ran (fig4 sweeps it already).
  if (std::none_of(params.begin(), params.end(),
                   [](const auto& kv) { return kv.first == "cc_threads"; })) {
    params.emplace_back("cc_threads", T(cfg.cc_threads));
    params.emplace_back("exec_threads", T(cfg.exec_threads));
  }
  Point p;
  p.system = std::move(system);
  p.params = std::move(params);
  p.workload = w;
  p.bohm = cfg;
  return p;
}

Point ExecutorPoint(EngineKind kind, Params params, const Workload& w,
                    uint32_t threads) {
  Point p;
  p.system = EngineKindName(kind);
  p.params = std::move(params);
  p.workload = w;
  p.executor = kind;
  p.threads = threads;
  return p;
}

void Append(std::vector<Point>* out, std::vector<Point> more) {
  for (Point& p : more) out->push_back(std::move(p));
}

/// The largest point of the thread axis, for figures with a fixed count.
uint32_t Max(const Scale& s) { return s.threads.back(); }

/// YCSB at theta 0.9 (high contention) and 0 (low), every system at every
/// thread count (Figures 5 and 6).
std::vector<Point> YcsbContention(const Scale& s, Txn txn) {
  std::vector<Point> out;
  for (auto [tag, theta] : {std::pair{"high", 0.9}, std::pair{"low", 0.0}}) {
    const Workload w = Ycsb({s.Rows(100'000), 1000, theta}, txn);
    for (uint32_t t : s.threads) {
      Append(&out, AllSystems({{"contention", tag},
                               {"theta", Fixed(theta, 2)},
                               {"threads", T(t)}},
                              w, t));
    }
  }
  return out;
}

/// Low-contention 10RMW updates mixed with read-only transactions of
/// 10,000 records (Section 4.2.3), at most half the table.
Workload ReadOnlyMix(const Scale& s, double readonly_fraction) {
  const uint64_t rows = s.Rows(100'000);
  const auto scan = static_cast<uint32_t>(std::min<uint64_t>(rows / 2, 10'000));
  return YcsbMixed({rows, 1000, 0.0, std::max(scan, 1u)}, readonly_fraction);
}

/// Bohm at the largest thread count, one point per `values` entry, with
/// `apply` setting that value on the engine config.
template <typename V, typename Apply>
std::vector<Point> BohmSweep(const Scale& s, const Workload& w,
                             const char* key, std::vector<V> values,
                             Apply apply) {
  std::vector<Point> out;
  for (const V& v : values) {
    BohmConfig cfg = BohmSplit(Max(s));
    const std::string value = apply(v, cfg);
    out.push_back(
        BohmPoint("Bohm", {{key, value}, {"threads", T(Max(s))}}, w, cfg));
  }
  return out;
}

std::vector<Point> Fig4(const Scale& s) {
  const Workload w = Ycsb({s.Rows(1'000'000), 8, 0.0}, Txn::k10Rmw);
  std::vector<Point> out;
  for (uint32_t exec : s.threads) {
    for (uint32_t cc : s.threads) {
      BohmConfig cfg;  // the paper's static partition -> CC-thread map
      cfg.cc_threads = cc;
      cfg.exec_threads = exec;
      out.push_back(BohmPoint(
          "Bohm", {{"cc_threads", T(cc)}, {"exec_threads", T(exec)}}, w, cfg));
    }
  }
  return out;
}

std::vector<Point> Fig7(const Scale& s) {
  std::vector<Point> out;
  for (double theta : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99}) {
    const Workload w = Ycsb({s.Rows(100'000), 1000, theta}, Txn::k2Rmw8R);
    const Params params = {{"theta", Fixed(theta, 2)}, {"threads", T(Max(s))}};
    Append(&out, AllSystems(params, w, Max(s)));
  }
  return out;
}

std::vector<Point> Fig8(const Scale& s) {
  std::vector<Point> out;
  for (double frac : {0.0, 0.01, 0.05, 0.2, 0.5, 1.0}) {
    Append(&out, AllSystems({{"readonly_pct", Fixed(100 * frac, 0)},
                             {"threads", T(Max(s))}},
                            ReadOnlyMix(s, frac), Max(s)));
  }
  return out;
}

std::vector<Point> Fig9(const Scale& s) {
  std::vector<Point> out =
      AllSystems({{"threads", T(Max(s))}}, ReadOnlyMix(s, 0.01), Max(s));
  std::swap(out[0], out[1]);  // Bohm first: the paper's table is relative
  return out;
}

std::vector<Point> Fig10(const Scale& s) {
  std::vector<Point> out;
  for (auto [tag, customers] : {std::pair<const char*, uint64_t>{"high", 50},
                                {"low", s.Rows(100'000)}}) {
    const Workload w = SmallBank({.customers = customers, .spin_us = 50});
    for (uint32_t t : s.threads) {
      Append(&out, AllSystems({{"contention", tag},
                               {"customers", T(customers)},
                               {"threads", T(t)}},
                              w, t));
    }
  }
  return out;
}

std::vector<Point> Fig11(const Scale& s) {
  // Small records: this figure measures the CC stage, and 1000-byte copies
  // would make execution the bottleneck. The smoke run is skewed hard
  // enough (8 hot keys; 4 threads, so 2 CC threads; a 1.05 trigger folded
  // every 2 batches of 64) that the adaptive controller must migrate.
  HotspotConfig cfg;
  cfg.record_count = s.smoke ? 4096 : 100'000;
  cfg.record_size = 64;
  cfg.hot_keys = s.smoke ? 8 : 16;
  cfg.shift_period = s.smoke ? 2000 : 50'000;
  const Workload w = Hotspot(cfg);
  std::vector<Point> out;
  for (uint32_t t : s.smoke ? std::vector<uint32_t>{4} : s.threads) {
    auto params = [&](const char* variant) {
      return Params{{"threads", T(t)},
                    {"hot_keys", T(cfg.hot_keys)},
                    {"shift_period", T(cfg.shift_period)},
                    {"variant", variant}};
    };
    out.push_back(ExecutorPoint(EngineKind::k2PL, params("2PL"), w, t));
    for (bool adaptive : {false, true}) {
      BohmConfig b = BohmSplit(t);
      b.batch_size = s.smoke ? 64 : 256;
      b.adaptive.enabled = adaptive;
      b.adaptive.interval_batches = s.smoke ? 2 : 8;
      b.adaptive.max_imbalance = s.smoke ? 1.05 : 1.25;
      Point p = BohmPoint(adaptive ? "Bohm-adaptive" : "Bohm-static",
                          params(adaptive ? "adaptive" : "static"), w, b);
      // Generating an 8-RMW hotspot transaction is not free: two feeders
      // would become the bottleneck before the CC stage does.
      p.clients = std::max(2u, t / 2);
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<Point> AblCommitDeps(const Scale& s) {
  const Workload w = Ycsb({s.Rows(10'000), 64, 0.9}, Txn::k2Rmw8R);
  std::vector<Point> out;
  for (EngineKind kind : {EngineKind::kHekaton, EngineKind::kSI}) {
    for (bool spec : {true, false}) {
      out.push_back(ExecutorPoint(
          kind, {{"speculation", spec ? "on" : "off"}, {"threads", T(Max(s))}},
          w, Max(s)));
      out.back().commit_dependencies = spec;
    }
  }
  return out;
}

std::vector<Point> AblDurability(const Scale& s) {
  struct Mode {
    const char* label;
    bool durable;
    FsyncPolicy policy;
    uint32_t group_size;
  };
  return BohmSweep(
      s, Ycsb({s.Rows(100'000), 1000, 0.9}, Txn::k10Rmw), "mode",
      std::vector<Mode>{{"nolog", false, FsyncPolicy::kNone, 0},
                        {"fsync=none", true, FsyncPolicy::kNone, 0},
                        {"fsync=group8", true, FsyncPolicy::kGroup, 8},
                        {"fsync=batch", true, FsyncPolicy::kBatch, 0}},
      [](const Mode& m, BohmConfig& cfg) {
        cfg.durability.enabled = m.durable;
        cfg.durability.fsync_policy = m.policy;
        if (m.group_size != 0) cfg.durability.group_size = m.group_size;
        return m.label;
      });
}

}  // namespace

Workload Ycsb(const YcsbConfig& cfg, YcsbGenerator::TxnType txn) {
  return YcsbWith(cfg, [txn](YcsbGenerator& g) { return g.Make(txn); });
}

std::vector<Point> AllSystems(const Params& params, const Workload& w,
                              uint32_t threads) {
  std::vector<Point> out;
  out.push_back(ExecutorPoint(EngineKind::k2PL, params, w, threads));
  out.push_back(BohmPoint("Bohm", params, w, BohmSplit(threads)));
  for (EngineKind kind :
       {EngineKind::kOCC, EngineKind::kSI, EngineKind::kHekaton}) {
    out.push_back(ExecutorPoint(kind, params, w, threads));
  }
  return out;
}

Status RunPoint(const Point& p, const DriverOptions& opt, BenchResult* out) {
  auto load = [&](auto& engine) {
    return p.workload.load([&engine](TableId t, Key k, const void* v) {
      return engine.Load(t, k, v);
    });
  };
  if (p.executor) {
    auto engine = MakeExecutorEngine(*p.executor, p.workload.catalog,
                                     p.threads, p.commit_dependencies);
    BOHM_RETURN_NOT_OK(load(*engine));
    *out = RunExecutorBench(*engine, p.workload.source, opt);
    return Status::OK();
  }
  BohmConfig cfg = p.bohm;
  const auto log_dir = std::filesystem::temp_directory_path() /
                       ("bohm_paper_bench_" + T(::getpid()));
  if (cfg.durability.enabled) {
    std::filesystem::remove_all(log_dir);
    cfg.durability.dir = log_dir.string();
  }
  BohmEngine engine(p.workload.catalog, cfg);
  BOHM_RETURN_NOT_OK(load(engine));
  BOHM_RETURN_NOT_OK(engine.Start());
  *out = RunBohmBench(engine, p.workload.source, p.clients, opt);
  engine.Stop();
  if (cfg.durability.enabled) std::filesystem::remove_all(log_dir);
  return Status::OK();
}

uint64_t Scale::Rows(uint64_t full) const {
  return smoke ? std::min<uint64_t>(full, 512) : full;
}

Scale DefaultScale() {
  Scale s;
  const uint32_t cores = std::max(1u, std::thread::hardware_concurrency());
  for (uint32_t t = 1; t <= cores; t *= 2) s.threads.push_back(t);
  return s;
}

Scale SmokeScale() {
  Scale s;
  s.smoke = true;
  s.threads = {1, 2};
  s.driver.warmup_ms = 10;
  s.driver.measure_ms = 50;
  return s;
}

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> kFigures = {
      {"fig4_cc_scalability",
       "Figure 4: CC x exec threads, 10RMW on 8-byte records, uniform",
       "each cc_threads series rises with exec_threads, then plateaus at the "
       "CC layer's capacity, which grows with cc_threads",
       Fig4},
      {"fig5_ycsb_10rmw", "Figure 5: YCSB 10RMW vs. threads, theta 0.9 and 0",
       "2PL highest; Bohm above Hekaton and SI at theta 0.9 (no aborts)",
       [](const Scale& s) { return YcsbContention(s, Txn::k10Rmw); }},
      {"fig6_ycsb_2rmw8r", "Figure 6: YCSB 2RMW-8R vs. threads, theta 0.9, 0",
       "theta 0.9: multi-version systems win, Bohm > SI > Hekaton; theta 0: "
       "OCC best, Bohm close behind",
       [](const Scale& s) { return YcsbContention(s, Txn::k2Rmw8R); }},
      {"fig7_theta_sweep", "Figure 7: YCSB 2RMW-8R vs. theta, most threads",
       "Hekaton and SI track each other (timestamp counter) until aborts "
       "take over at high theta; Bohm degrades gracefully",
       Fig7},
      {"fig8_readonly_mix",
       "Figure 8: YCSB 10RMW plus 0-100% long read-only transactions",
       "multi-version systems far above OCC and 2PL at a small read-only "
       "fraction; all converge at 100%",
       Fig8},
      {"fig9_readonly_table",
       "Figure 9 (table): YCSB with 1% long read-only transactions",
       "paper, 40 threads: SI 64.3%, Hekaton 60.6%, 2PL 15.6%, OCC 8.9% of "
       "Bohm's 181,565 txn/s",
       Fig9},
      {"fig10_smallbank",
       "Figure 10: SmallBank vs. threads, 50 and 100,000 customers, 50us spin",
       "50: 2PL best, Bohm close, Hekaton/SI drop; 100,000: 2PL/OCC/Bohm "
       "cluster, Hekaton/SI ~3x lower (global counter)",
       Fig10},
      {"fig11_hotspot",
       "Shifting hotspot: static vs. adaptive partition -> CC-thread map",
       "adaptive migrates hot partitions (cc_migrations > 0, cc_imbalance "
       "toward 1.0) and beats static",
       Fig11},
      {"abl_batch_size", "Ablation: Bohm batch size, 10RMW on 8-byte records",
       "throughput climbs away from batch 1, saturates once the per-batch "
       "cost is amortized",
       [](const Scale& s) {
         return BohmSweep(s, Ycsb({s.Rows(100'000), 8, 0.0}, Txn::k10Rmw),
                          "batch_size",
                          std::vector<uint32_t>{1, 4, 16, 64, 256, 1024, 4096},
                          [](uint32_t batch, BohmConfig& cfg) {
                            cfg.batch_size = batch;
                            return T(batch);
                          });
       }},
      {"abl_commit_deps",
       "Ablation: Hekaton/SI commit dependencies, YCSB 2RMW-8R, theta 0.9",
       "speculative reads of Preparing versions cut aborts", AblCommitDeps},
      {"abl_durability", "Ablation: durable sequencer log, 10RMW, theta 0.9",
       "fsync=none within noise of nolog, group commit a few percent, fsync "
       "per batch bound by the device (log_stall_us)",
       AblDurability},
      {"abl_gc", "Ablation: Condition-3 GC on/off, hot 10RMW",
       "gc_freed close to every superseded version, at no throughput cost",
       [](const Scale& s) {
         return BohmSweep(s, Ycsb({s.Rows(10'000), 1000, 0.9}, Txn::k10Rmw),
                          "gc", std::vector<bool>{true, false},
                          [](bool gc, BohmConfig& cfg) {
                            cfg.gc_enabled = gc;
                            return std::string(gc ? "on" : "off");
                          });
       }},
      {"lat_profile", "Latency profile: YCSB 2RMW-8R, theta 0.9",
       "retries stretch the OCC/Hekaton/SI tails, lock waits 2PL's; Bohm's "
       "end-to-end latency carries batching delay, not contention",
       [](const Scale& s) {
         return AllSystems({{"threads", T(Max(s))}},
                           Ycsb({s.Rows(20'000), 1000, 0.9}, Txn::k2Rmw8R),
                           Max(s));
       }},
  };
  return kFigures;
}

const Figure* FindFigure(const std::string& name) {
  for (const Figure& f : Figures()) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

Status RunFigure(const Figure& fig, const Scale& scale,
                 std::vector<Measurement>* out) {
  std::printf("\n== %s: %s ==\n", fig.name, fig.title);
  for (Point& p : fig.plan(scale)) {
    Measurement m{std::move(p), {}};
    BOHM_RETURN_NOT_OK(RunPoint(m.point, scale.driver, &m.result));
    std::printf("%s\n", FormatRow(m).c_str());
    std::fflush(stdout);
    out->push_back(std::move(m));
  }
  std::printf("Expected: %s\n", fig.shape);
  return Status::OK();
}

BohmConfig BohmSplit(uint32_t total_threads) {
  total_threads = std::max(1u, total_threads);
  BohmConfig cfg;
  cfg.cc_threads = std::max(1u, total_threads / 2);
  cfg.exec_threads = std::max(1u, total_threads - cfg.cc_threads);
  cfg.adaptive.enabled = true;
  return cfg;
}

}  // namespace bohm
