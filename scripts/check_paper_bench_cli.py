#!/usr/bin/env python3
"""Checks the paper_bench binary's command line and JSON output.

    check_paper_bench_cli.py PATH/TO/paper_bench

Runs two figures at smoke size with --json and checks that the file is an
array of two figure objects whose points carry the fixed counter keys, in
order, with gc_freed on Bohm points only. Then checks that an unknown
argument exits 2 (usage). Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURES = ["fig9_readonly_table", "abl_gc"]

# Every point's keys from "seconds" on; the swept parameters come before.
COUNTERS = [
    "seconds", "commits", "cc_aborts", "logic_aborts", "tput_txns_per_sec",
    "abort_rate", "lat_count", "lat_mean_us", "p50_us", "p99_us", "p999_us",
    "max_us", "seq_stall_us", "seq_idle_us", "cc_stall_us", "exec_stall_us",
    "log_stall_us", "log_bytes", "log_records", "fsyncs",
]


def check_json(path: Path) -> list[str]:
    errors = []
    doc = json.loads(path.read_text())
    if not isinstance(doc, list) or len(doc) != len(FIGURES):
        return [f"expected an array of {len(FIGURES)} figures, got {doc!r:.80}"]
    for fig, name in zip(doc, FIGURES):
        if fig.get("figure") != name:
            errors.append(f"figure {fig.get('figure')!r}, expected {name!r}")
        if not fig.get("points"):
            errors.append(f"{name}: no points")
        for point in fig.get("points", []):
            keys = list(point)
            bohm = point.get("system") == "Bohm"
            want = COUNTERS + (["gc_freed"] if bohm else [])
            if "seconds" not in keys or keys[keys.index("seconds"):] != want:
                errors.append(f"{name}: point keys {keys}")
            if bohm and "clients" not in point:
                errors.append(f"{name}: Bohm point without clients: {keys}")
            if point.get("lat_count") != point.get("commits"):
                errors.append(f"{name}: lat_count != commits: {point}")
    return errors


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "figures.json"
        run = subprocess.run([binary, *FIGURES, "--smoke", "--json", str(out)],
                             stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            errors.append(f"figure run exited {run.returncode}")
        elif not out.exists():
            errors.append("figure run wrote no JSON")
        else:
            errors += check_json(out)
    bogus = subprocess.run([binary, "--bogus"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    if bogus.returncode != 2:
        errors.append(f"--bogus exited {bogus.returncode}, expected 2")
    for e in errors:
        print(f"paper_bench_cli: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
