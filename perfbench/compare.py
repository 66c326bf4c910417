#!/usr/bin/env python3
"""Compare two sets of benchmark result records, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result records (as written to
perfbench/out/results/) or a single record file: a parent commit and a
change, or two sets of runs of one commit. Only end-to-end (--trace 0)
records are compared. Runs of a workload are paired in the order they
started. For every end-to-end metric of BENCHMARK.json on every
workload, one row gives each side's median and quartiles, the pairs the
change won, the ratio of the medians with its base, and a verdict:

  improved    at least 10 pairs, the change won at least 9/10 of them
              (ties count for neither), and the medians differ, in its
              favour, by more than the parent's interquartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound, and both spreads are within it;
              or, for every metric of the workload, a change run judged
              an output wrong (correct=false) or failed a larger share
              of its ops than its paired parent run (the share, since a
              faster change runs more repeats and so more ops);
  same        neither: the change's median is within the bound and both
              spreads are within it;
  unresolved  a spread is wider than the bound, or there are fewer than
              two runs a side, unless every change run beats every
              parent run; or the change looks like a gain on fewer
              than 10 pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0 and not rec.get("smoke"):
            records.append(rec | {"path": f.name})
    return sorted(records, key=lambda r: r["started_unix"])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, higher_better: bool, bound: float) -> tuple:
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread_ok = len(parent) >= 2 and len(change) >= 2 and max(p3 - p1, c3 - c1) <= bound * abs(pm)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), wins, len(pairs)
    if not spread_ok and not all_better:
        return "unresolved", wins, len(pairs)
    if -sign * (cm - pm) > bound * abs(pm):
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("compare: no end-to-end result records on one side", file=sys.stderr)
        return 2
    print("workload | metric | unit | parent median [q1, q3] (n) | change median [q1, q3] (n) | pairs won | ratio | verdict")
    for w in spec["workloads"]:
        name = w["name"]
        p_runs = [r for r in parent if r["workload"] == name]
        c_runs = [r for r in change if r["workload"] == name]
        if not p_runs or not c_runs:
            print(f"{name} | - | - | {len(p_runs)} runs | {len(c_runs)} runs | - | - | unresolved")
            continue
        broken = [c["path"] for c in c_runs if not c["result"]["correct"]]
        broken += [c["path"] for p, c in zip(p_runs, c_runs) if c["fail_frac"] > p["fail_frac"]]
        if broken:
            print(f"{name}: worse outputs or more failed ops than the parent in {len(broken)} change runs: {', '.join(broken)}")
        for m in spec["end_to_end"]:
            pv = [r["result"]["metrics"][m["name"]]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][m["name"]]["value"] for r in c_runs]
            v, wins, n = verdict(pv, cv, m["better"] == "higher", m["bound"])
            if broken:
                v = "worse"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            ratio = f"{cm / pm:.3f} (base: parent median {pm:.4g} {m['unit']})" if pm else "- (parent median 0)"
            print(
                f"{name} | {m['name']} | {m['unit']} | {pm:.4g} [{p1:.4g}, {p3:.4g}] ({len(pv)}) | "
                f"{cm:.4g} [{c1:.4g}, {c3:.4g}] ({len(cv)}) | {wins}/{n} | {ratio} | {v}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
