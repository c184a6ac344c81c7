#!/usr/bin/env bash
# Capture the committed bench trajectory: run the snapshot figures at
# their default sizes and write one BENCH_<figure>.json per figure at the
# repo root (paper_bench writes each file only once its figure has
# completed). Re-run after perf-relevant changes and commit the diff; each
# file's header records the host's nproc, the compiler and the build type.
#
# Usage: bench_snapshot.sh [build-dir]   (default: <repo>/build)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-$root/build}/paper_bench
if [[ ! -x "$bin" ]]; then
  echo "FAIL: $bin not built (run: cmake --build ${1:-$root/build} -j)" >&2
  exit 1
fi

for fig in fig5_ycsb_10rmw fig7_theta_sweep abl_durability; do
  "$bin" "$fig" --json "$root/BENCH_$fig.json"
done
echo "Snapshots written. Review and commit the BENCH_*.json diffs."
