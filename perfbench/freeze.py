#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs of every input any run can use.

    python3 perfbench/freeze.py

Run it only at the commit whose outputs are the reference; a later run
would freeze whatever that commit computes, right or wrong. It runs each
plane sweep, every grid-points point, and every point-session point
with every validate seed, as CLI subprocesses.
"""

from __future__ import annotations

import json
import sys

import run
import checks
import workloads
from workloads import Invocation


def observe(inv: Invocation, work) -> dict:
    res = run.run_child([sys.executable, "-c", run.CLI_ENTRY, *run.cli_args(inv, work)], work / inv.op_id.replace("/", "_"))
    obs = checks.observe(inv.kind, res["code"], res["stdout"], res["stderr"], work / inv.workdir)
    print(f"{inv.op_id}: {'ok' if obs['ok'] else obs['reason']} ({res['wall_s']:.2f} s)", flush=True)
    return obs


def main() -> int:
    work = run.fresh_dir(run.OUT / "freeze")
    ref = {
        "about": "Outputs of the reference commit for every benchmark input; see perfbench/README.md.",
        "git_commit": run.environment()["git_commit"],
        "cells": {},
        "dist": {},
        "measure": {},
        "validate": {},
    }
    for name, plane in (("plane", None), ("smoke", workloads.SMOKE_PLANE)):
        (work / f"{name}.ini").write_text(workloads.plane_config(plane))
        (work / name).mkdir()
        obs = observe(Invocation(f"{name}/sweep", "sweep", ("sweep", "--threads", "2"), f"{name}.ini", name, name), work)
        if not obs["ok"]:
            raise SystemExit(f"sweep of the {name} plane failed: {obs['reason']}")
        ref["cells"].update(obs["cells"])

    def point_call(p, kind, argv=(), key=None):
        key = key or p.key
        (work / f"{p.pid}.ini").write_text(p.config())
        out = f"{kind}/{p.pid}{argv[-1] if argv else ''}"
        (work / out).mkdir(parents=True, exist_ok=True)
        obs = observe(Invocation(out, kind, (kind, *argv), f"{p.pid}.ini", out, p.pid, key), work)
        ref[kind][key] = {**obs, "point": p.pid}

    for p in workloads.grid_points():
        point_call(p, "dist")
    for p in workloads.session_points():
        point_call(p, "measure")
        for vseed in workloads.VALIDATE_SEEDS:
            point_call(p, "validate", ("--seed", str(vseed)), f"{p.key}@{vseed}")
    (run.BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
