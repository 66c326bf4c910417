#!/usr/bin/env python3
"""Smoke test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs (a 2x2 plane of cheap cells, one
grid point, one session point), untraced and traced, and checks that:

- every metric of BENCHMARK.json appears with its unit;
- spans nest, and every self time is >= 0;
- the self times sum to no more than the traced wall time;
- in a directory holding only BENCHMARK.json and perfbench/, run.py
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def check_metrics(result: dict, wanted: list, where: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        raise AssertionError(f"{where}: metrics {sorted(set(got) ^ set(want))} missing or unexpected, or units differ")
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            raise AssertionError(f"{where}: result has no {key!r}")
    if not result["correct"]:
        raise AssertionError(f"{where}: outputs differ from the reference")


def check_spans(record: dict, where: str) -> None:
    spans = record["spans"]
    if not spans:
        raise AssertionError(f"{where}: no spans recorded")
    for i, s in enumerate(spans):
        if not s["start"] <= s["end"]:
            raise AssertionError(f"{where}: span {i} ({s['name']}) ends before it starts")
        if s["self_s"] < 0.0:
            raise AssertionError(f"{where}: span {i} ({s['name']}) has self time {s['self_s']}")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if not (s["parent"] < i and p["start"] <= s["start"] and s["end"] <= p["end"]):
                raise AssertionError(f"{where}: span {i} ({s['name']}) is not inside its parent {p['name']}")
    total_self = sum(s["self_s"] for s in spans)
    wall = record["extra"]["traced_wall_s"]
    if total_self > wall:
        raise AssertionError(f"{where}: self times sum to {total_self} s > traced wall {wall} s")
    names = {s["name"] for s in spans}
    if not any(n.startswith(("cli.", "measures.", "distributions.")) for n in names):
        raise AssertionError(f"{where}: no library spans among {sorted(names)}")


def check_bare_directory() -> None:
    bare = run.fresh_dir(run.OUT / "bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-points", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"run.py without sources exited {proc.returncode} and printed {proc.stdout!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            record = run.run_benchmark(workload, seed=1, seconds=1, trace=trace, smoke=True)
            check_metrics(record["result"], spec["per_layer" if trace else "end_to_end"], where)
            if trace:
                check_spans(record, where)
            print(f"ok  {where}: {record['ops']} ops, {record['ops_failed']} failed", flush=True)
    check_bare_directory()
    print("ok  run.py refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
