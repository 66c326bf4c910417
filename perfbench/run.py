#!/usr/bin/env python3
"""Benchmark of the clpair CLI. Run from the root of a checkout:

    python3 perfbench/run.py --workload plane-sweep --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload, one after another.

The seed draws one round of calls. With --trace 0 the run repeats the
round, each call a `clpair` subprocess run one at a time, for about
--seconds and at least three times, and reports the end-to-end metrics
from per-call medians. With --trace 1 it replays the round in-process
with threads=1, once plain and once with spans around every public
function of the package, and reports the per-layer metrics. Every
output is checked against `reference.json`.
The last line of stdout is the JSON result; the full record (inputs,
environment, every failed op) goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import pkgutil
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

CLI_ENTRY = "from clpair.cli import main; main(prog_name='clpair')"
SETUP_ENTRY = "import sys; from clpair.cli import load_config; load_config(sys.argv[1])"
SETUP_SAMPLES = 9
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def sweep_threads() -> int:
    """min(2, nproc): the usable cores, as `nproc` counts them."""
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list, log_stem: Path) -> dict:
    """Run one subprocess to completion; wall time and rusage from wait4."""
    with open(f"{log_stem}.out", "w") as fo, open(f"{log_stem}.err", "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"{' '.join(cmd[3:5])} did not finish within {CHILD_TIMEOUT_S:.0f} s")
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "stdout": Path(f"{log_stem}.out").read_text(),
        "stderr": Path(f"{log_stem}.err").read_text(),
    }


def cli_args(inv, work: Path) -> list:
    return [*inv.argv, "--config", str(work / inv.config), "--out", str(work / inv.workdir)]


def write_round(rnd, work: Path) -> None:
    for rel, text in rnd.configs.items():
        (work / rel).write_text(text)
    for inv in rnd.invocations:
        (work / inv.workdir).mkdir(parents=True, exist_ok=True)


def load_reference() -> dict:
    try:
        return json.loads((BENCH / "reference.json").read_text())
    except (OSError, ValueError) as exc:
        raise checks.CheckError(f"cannot read the frozen reference: {exc}") from exc


def setup_sample(config: Path, work: Path, index: int) -> float:
    """Wall seconds of a fresh process that imports clpair.cli and loads the config."""
    res = run_child([sys.executable, "-c", SETUP_ENTRY, str(config)], work / f"setup{index}")
    if res["code"] != 0:
        raise BenchError(f"set-up process failed: {res['stderr'].strip()[-300:]}")
    return res["wall_s"]


def run_subprocess_round(rnd, work: Path, reference: dict, setup: list) -> tuple:
    """Every call of the round as a subprocess; returns (ops, child stats).

    Before each call, while `setup` holds fewer than SETUP_SAMPLES samples,
    it takes one more, so that the samples spread over the run's load phases.
    """
    write_round(rnd, work)
    ops, children = [], []
    for inv in rnd.invocations:
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(work / inv.config, work, len(setup)))
        res = run_child([sys.executable, "-c", CLI_ENTRY, *cli_args(inv, work)], work / inv.op_id.replace("/", "_"))
        obs = checks.observe(inv.kind, res["code"], res["stdout"], res["stderr"], work / inv.workdir)
        ops += checks.judge(inv, obs, reference, rnd.points if inv.kind == "sweep" else 0)
        children.append({k: res[k] for k in ("code", "wall_s", "cpu_s", "maxrss_mb")} | {"op_id": inv.op_id})
    return ops, children


def call_inprocess(inv, work: Path) -> tuple:
    """One CLI call through click in this process: (code, stdout, stderr)."""
    import click
    from clpair.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli_main.main(args=cli_args(inv, work), prog_name="clpair", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
            err.write(exc.format_message() + "\n")
        except Exception as exc:  # the CLI would print this traceback and exit 1
            code = 1
            err.write(f"Traceback (in-process replay)\n{type(exc).__module__}.{type(exc).__qualname__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def replay(rnd, work: Path, reference: dict, tracer=None) -> tuple:
    """The round in-process; returns (wall seconds, ops)."""
    write_round(rnd, work)
    ops = []
    t0 = time.perf_counter()
    for inv in rnd.invocations:
        if tracer is None:
            code, out, err = call_inprocess(inv, work)
        else:
            tracer.point = inv.point
            with tracer.span(f"replay.{inv.kind}"):
                code, out, err = call_inprocess(inv, work)
        ops += checks.judge(inv, checks.observe(inv.kind, code, out, err, work / inv.workdir), reference, rnd.points)
    return time.perf_counter() - t0, ops


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def e2e_run(workload: str, seed: int, seconds: float, smoke: bool, work: Path, reference: dict) -> dict:
    """Repeat the seed's round; per-call medians over the repeats give the timings.

    Bursts of load from outside the benchmark slow single calls by up to
    half; a median over at least MIN_REPEATS runs of the same call drops them.
    """
    threads = sweep_threads()
    first = workloads.make_round(workload, seed, threads, smoke)
    ops, runs, setup, repeats = [], [], [], 1
    t0 = time.perf_counter()
    while len(runs) < repeats:
        rnd = first if not runs else workloads.make_round(workload, seed, threads, smoke, tag=f"r{len(runs)}")
        r_ops, children = run_subprocess_round(rnd, work, reference, setup)
        ops += r_ops
        runs.append(children)
        if len(runs) == 1:
            repeats = max(MIN_REPEATS, round(seconds / (time.perf_counter() - t0 - sum(setup))))
    wall = time.perf_counter() - t0 - sum(setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(work / first.invocations[len(setup) % len(first.invocations)].config, work, len(setup)))
    per_call = list(zip(*runs))  # per call, its stats in every repeat
    round_wall = sum(statistics.median(c["wall_s"] for c in call) for call in per_call)
    round_cpu = sum(statistics.median(c["cpu_s"] for c in call) for call in per_call)
    n_failed = sum(not op.ok for op in ops)
    metrics = {
        "points_per_s": (first.points / round_wall, "1/s"),
        "cpu_per_point_s": (round_cpu / first.points, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(c["maxrss_mb"] for children in runs for c in children), "MB"),
        "ok_frac": (1.0 - n_failed / len(ops), "ratio"),
    }
    return {
        "metrics": metrics,
        "ops": ops,
        "round": first,
        "extra": {
            "wall_s": wall,
            "repeats": repeats,
            "points_per_round": first.points,
            "threads": threads,
            "setup_samples_s": setup,
            "children": [c for children in runs for c in children],
        },
    }


def traced_run(workload: str, seed: int, smoke: bool, work: Path, reference: dict) -> dict:
    import tracer as tr

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import clpair

    # commands import some modules lazily; import them all now so that
    # neither replay pays for it
    for info in pkgutil.iter_modules(clpair.__path__):
        importlib.import_module(f"clpair.{info.name}")

    threads = sweep_threads()
    rnd = workloads.make_round(workload, seed, 1, smoke)
    sweep_wall = 0.0
    if workload == "plane-sweep":
        parallel = workloads.make_round(workload, seed, threads, smoke)
        write_round(parallel, fresh_dir(work / "parallel"))
        sweep = run_child(
            [sys.executable, "-c", CLI_ENTRY, *cli_args(parallel.invocations[0], work / "parallel")], work / "parallel" / "sweep"
        )
        sweep_wall = sweep["wall_s"]
    plain_wall, _ = replay(rnd, fresh_dir(work / "plain"), reference)
    tracer = tr.Tracer()
    undo = tr.instrument(tracer)
    try:
        traced_wall, ops = replay(rnd, fresh_dir(work / "traced"), reference, tracer)
    finally:
        tr.restore(undo)
    # allocation peaks come from a third replay, so that tracemalloc's cost
    # stays out of the timed spans
    alloc = tr.Tracer(track_alloc=True)
    undo = tr.instrument(alloc)
    try:
        replay(rnd, fresh_dir(work / "alloc"), reference, alloc)
    finally:
        tr.restore(undo)
    ev = [s.end - s.start for s in tracer.spans if s.name == "measures.evaluate_point"]
    parallel_eff = sum(ev) / (threads * sweep_wall) if sweep_wall > 0 else 0.0
    reports_failed = sum(op.kind == "oracle" and not op.ok for op in ops)
    metrics = tr.layer_metrics(tracer.spans, alloc.spans, parallel_eff, traced_wall - plain_wall, reports_failed)
    return {
        "metrics": metrics,
        "ops": ops,
        "round": rnd,
        "spans": tr.spans_as_dicts(tracer.spans),
        "extra": {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall, "parallel_sweep_wall_s": sweep_wall, "threads": threads},
    }


def select_metrics(measured: dict, wanted: list) -> dict:
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name in measured:
            value, unit = measured[name]
        elif name.endswith(".self_s"):  # a public function this round never called
            value, unit = 0.0, "s"
        else:
            raise BenchError(f"metric {name} was not measured")
        if unit != spec["unit"]:
            raise BenchError(f"metric {name} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        top, _, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.partition("\n")
        # a checkout that is not a repository may sit inside another one
        commit = commit.strip() if Path(top).resolve() == ROOT else ""
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = {}
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CLPAIR_THREADS")},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One run; returns the full record. Raises on anything that makes it untrustworthy."""
    if not (SRC / "clpair" / "cli.py").is_file():
        raise BenchError(f"no clpair source at {SRC}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference()
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    work = fresh_dir(OUT / "work" / tag)
    started = time.time()
    if trace:
        res = traced_run(workload, seed, smoke, work, reference)
        metrics = select_metrics(res["metrics"], spec["per_layer"])
    else:
        res = e2e_run(workload, seed, seconds, smoke, work, reference)
        metrics = select_metrics(res["metrics"], spec["end_to_end"])
    ops = res["ops"]
    failed = [op for op in ops if not op.ok]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "started_unix": started,
        "environment": environment(),
        "inputs": {
            "configs": res["round"].configs,
            "calls": [" ".join(("clpair", *inv.argv, "--config", inv.config)) for inv in res["round"].invocations],
        },
        "result": {
            "correct": not any(op.mismatch for op in ops),
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": metrics,
        },
        "ops": len(ops),
        "ops_failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "failures": [{"op": op.op_id, "reason": op.reason, "mismatch": op.mismatch} for op in failed],
        "fixed": [op.op_id for op in ops if op.fixed],
        "extra": res["extra"],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{tag}-{time.strftime('%Y%m%dT%H%M%S', time.gmtime(started))}-{os.getpid()}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in res:
        Path(f"{stem}.spans.json").write_text(json.dumps(res["spans"]) + "\n")
        record["spans"] = res["spans"]
    record["path"] = f"{stem}.json"
    shutil.rmtree(work)  # grids and SVGs, ~50 MB a run; the record keeps what was judged
    return record


def report(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: {record['ops']} ops, "
          f"{record['ops_failed']} failed (fail_frac {record['fail_frac']:.4f}), correct={result['correct']}")
    for f in record["failures"]:
        print(f"  failed {f['op']}: {f['reason']}" + ("  [differs from reference]" if f["mismatch"] else ""))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  record: {record['path']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_benchmark(name, args.seed, args.seconds, args.trace)
        except (BenchError, checks.CheckError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        report(record)
        results[name] = record["result"]
    # one workload: its result; all: the result of each, by name
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
