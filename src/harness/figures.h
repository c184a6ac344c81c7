// The paper's evaluation (Section 4, Figures 4-10) plus the repo's
// ablations, as one table. Each figure row lists its measurement points;
// a point names its system, swept parameters, workload and engine
// configuration, and RunPoint() runs any of them on a fresh engine, so no
// state leaks across points. Sizes are per-figure constants; the smoke
// scale shrinks them so the whole table runs in seconds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bohm/engine.h"
#include "harness/driver.h"
#include "harness/engines.h"
#include "workload/ycsb.h"

namespace bohm {

/// One (name, value) pair per swept parameter, e.g. {"threads", "4"}, in
/// the order the JSON prints them.
using Params = std::vector<std::pair<std::string, std::string>>;

/// A table set plus its loader and per-client transaction generators.
struct Workload {
  using Sink = std::function<Status(TableId, Key, const void*)>;
  Catalog catalog;
  std::function<Status(const Sink&)> load;
  TxnSourceMaker source;
};

Workload Ycsb(const YcsbConfig& cfg, YcsbGenerator::TxnType txn);

struct Point {
  std::string system;  ///< "Bohm", "2PL", "Bohm-adaptive", ...
  Params params;
  Workload workload;
  /// Unset: a Bohm point running `bohm` with `clients` feeder threads.
  std::optional<EngineKind> executor;
  uint32_t threads = 1;  ///< executor worker threads
  bool commit_dependencies = true;
  BohmConfig bohm;
  uint32_t clients = 2;
};

/// The five systems at `threads` each, in the paper's plotting order.
std::vector<Point> AllSystems(const Params& params, const Workload& w,
                              uint32_t threads);

/// Builds `workload` on a fresh engine, loads it, runs one measurement
/// window and tears the engine down. A durable Bohm point logs to a fresh
/// temporary directory, removed afterwards.
Status RunPoint(const Point& p, const DriverOptions& opt, BenchResult* out);

struct Measurement {
  Point point;
  BenchResult result;
};

struct Scale {
  bool smoke = false;
  /// Thread axis: powers of two up to the host's core count (1, 2 in
  /// smoke runs, whatever the host).
  std::vector<uint32_t> threads;
  DriverOptions driver;
  /// A table of `full` rows, or at most 512 in smoke runs.
  uint64_t Rows(uint64_t full) const;
};
Scale DefaultScale();
Scale SmokeScale();

struct Figure {
  const char* name;   ///< CLI name and the JSON "figure"
  const char* title;  ///< what the figure plots
  const char* shape;  ///< the result the paper (or the ablation) expects
  std::vector<Point> (*plan)(const Scale&);
};

/// Every figure, in the paper's order, then the ablations.
const std::vector<Figure>& Figures();
const Figure* FindFigure(const std::string& name);

/// Plans `fig` at `scale` and runs every point, printing one row per
/// point as it completes. Stops at the first point that fails.
Status RunFigure(const Figure& fig, const Scale& scale,
                 std::vector<Measurement>* out);

// --- Output (report.cc) ---------------------------------------------------

/// "2.50M", "12.3K", "42".
std::string FormatTput(double txns_per_sec);

/// One fixed-format row: system, parameters, throughput, abort rate and
/// latency percentiles. The JSON carries every other value.
std::string FormatRow(const Measurement& m);

/// Writes `figure` as one JSON object: a header naming the host (nproc,
/// compiler, build type), then one point per line, keys in a fixed order.
/// An unmeasured gauge (cc_imbalance 0) prints as null; Bohm points add
/// gc_freed. This is the format of the committed BENCH_*.json snapshots.
void WriteJson(std::FILE* f, const char* figure,
               const std::vector<Measurement>& points);

/// The cross-system comparisons give every system `total_threads`; Bohm
/// splits them between the CC and execution stages (at least one each,
/// so 1 and 2 threads both run 1 + 1), with adaptive repartitioning on.
BohmConfig BohmSplit(uint32_t total_threads);

}  // namespace bohm
