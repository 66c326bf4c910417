"""Read the outputs of one CLI call and judge them against the frozen reference.

`observe` turns an exit code, the captured streams and the files a call
wrote into a plain dict; `freeze.py` stores those dicts as the
reference, and `judge` compares a fresh one with it, op by op.

An op is a sweep cell, a CLI call or an oracle report. It fails on a
non-zero exit, a traceback, an `error` row, an oracle FAIL, or a value
outside tolerance of the reference. A failure the reference also holds,
with the same reason, is expected: it counts as failed but not as a
mismatch. An op that failed in the reference and passes now is `fixed`.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

# PURITY_QUAD of the reference commit; frozen here so that a change to
# the library's tolerance cannot widen the check.
PURITY_ABS_TOL = 5e-5
PURITY_REL_TOL = 1e-4
D2_REL_TOL = 1e-9  # closed form
INTEGRAL_ABS_TOL = 1e-6

_EXC_LINE = re.compile(r"^([A-Za-z_][\w.]*(?:Error|Exception|Exit|Interrupt|Warning))(?::|$)")


class CheckError(RuntimeError):
    """An output check could not run; the benchmark must not report a result."""


@dataclass
class Op:
    op_id: str
    kind: str
    point: str
    ok: bool
    reason: str = ""
    mismatch: bool = False
    fixed: bool = False


def failure_reason(code: int, stdout: str, stderr: str) -> str:
    """Why a call failed: exception name, FAIL lines, error rows or exit code."""
    if code == 0:
        return ""
    lines = stderr.strip().splitlines()
    if "Traceback" in stderr:
        for line in reversed(lines):
            m = _EXC_LINE.match(line.strip())
            if m:
                return m.group(1).rsplit(".", 1)[-1]
    fails = [line.split(":", 1)[0] for line in stdout.splitlines() if line.startswith("FAIL ")]
    if fails:
        return "; ".join(fails)
    errors = [line for line in lines if " failed: " in line]
    if errors:
        return f"{len(errors)} error rows"
    return f"exit {code}: {lines[-1] if lines else ''}".strip()


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc


def _row_values(row: dict) -> dict:
    return {
        "purity_sc": float(row["purity_sc"]),
        "purity_z": float(row["purity_z"]),
        "d2": float(row["d2"]),
        "regime": row["regime"],
    }


def _read_csv(path: Path) -> list:
    try:
        return list(csv.DictReader(io.StringIO(path.read_text())))
    except (OSError, csv.Error) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc


def observe(kind: str, code: int, stdout: str, stderr: str, out_dir: Path) -> dict:
    """Outcome of one call, read from its streams and output files."""
    obs = {"ok": code == 0, "reason": failure_reason(code, stdout, stderr)}
    if kind == "sweep":
        path = out_dir / "sweep.csv"
        if path.exists():
            errors = {}
            for line in stderr.splitlines():
                m = re.match(r"cell \(([^,]+), ([^)]+)\) failed: (.*)", line)
                if m:
                    errors[f"{m.group(1)}|{m.group(2)}"] = m.group(3)
            obs["cells"] = {}
            for row in _read_csv(path):
                key = f"{row['dq_perp_um_inv']}|{row['dk_ph_um_inv']}"
                cell = _row_values(row)
                if cell["regime"] == "error":
                    cell["error"] = errors.get(key, "error row")
                obs["cells"][key] = cell
        elif code == 0:
            raise CheckError(f"sweep exited 0 but wrote no {path}")
    elif kind == "render":
        path = out_dir / "render_purity_sc.svg"
        if code == 0 and not (path.exists() and "<svg" in path.read_text()[:200]):
            raise CheckError(f"render exited 0 but wrote no SVG at {path}")
    elif kind == "dist" and code == 0:
        info = _load_json(out_dir / "dist.json")
        for key in ("momentum_shape", "position_shape", "momentum_integral", "position_integral"):
            obs[key] = info[key]
    elif kind == "measure" and code == 0:
        rows = _read_csv(out_dir / "measure.csv")
        if len(rows) != 1:
            raise CheckError(f"measure wrote {len(rows)} rows")
        obs.update(_row_values(rows[0]))
    elif kind == "validate":
        path = out_dir / "validate.json"
        if path.exists() and "Traceback" not in stderr:
            obs["reports"] = {r["quantity"]: bool(r["passed"]) for r in _load_json(path)["reports"]}
        elif code == 0:
            raise CheckError(f"validate exited 0 but wrote no {path}")
    return obs


def _value_diffs(obs: dict, ref: dict) -> list:
    diffs = []
    for key in ("purity_sc", "purity_z"):
        tol = max(PURITY_ABS_TOL, PURITY_REL_TOL * abs(ref[key]))
        if not abs(obs[key] - ref[key]) <= tol:
            diffs.append(f"{key} {obs[key]!r} vs reference {ref[key]!r} (tol {tol:.1e})")
    if not abs(obs["d2"] - ref["d2"]) <= D2_REL_TOL * abs(ref["d2"]):
        diffs.append(f"d2 {obs['d2']!r} vs reference {ref['d2']!r}")
    if obs["regime"] != ref["regime"]:
        diffs.append(f"regime {obs['regime']} vs reference {ref['regime']}")
    return diffs


def _dist_diffs(obs: dict, ref: dict) -> list:
    diffs = [
        f"{key} {obs[key]} vs reference {ref[key]}"
        for key in ("momentum_shape", "position_shape")
        if list(obs[key]) != list(ref[key])
    ]
    for key in ("momentum_integral", "position_integral"):
        if not abs(obs[key] - ref[key]) <= INTEGRAL_ABS_TOL:
            diffs.append(f"{key} {obs[key]!r} vs reference {ref[key]!r}")
    return diffs


def _outcome_op(op_id: str, kind: str, point: str, obs: dict, ref: dict, diffs=()) -> Op:
    """Op for an outcome that the reference also has (ok or failed, with reason)."""
    op = Op(op_id, kind, point, obs["ok"], obs["reason"])
    if obs["ok"] and diffs:
        op.ok, op.mismatch, op.reason = False, True, "; ".join(diffs)
    elif obs["ok"]:
        op.fixed = not ref["ok"]
    elif ref["ok"] or obs["reason"] != ref["reason"]:
        op.mismatch = True
    return op


def judge(inv, obs: dict, reference: dict, expected_cells: int = 0) -> list:
    """Ops of one call, each compared with the frozen reference."""
    if inv.kind in ("sweep", "render"):
        ops = [_outcome_op(inv.op_id, inv.kind, inv.point, obs, {"ok": True, "reason": ""})]
        cells = obs.get("cells", {})
        for key, cell in cells.items():
            ref = reference["cells"].get(key)
            if ref is None:
                raise CheckError(f"no reference for sweep cell {key}")
            op_id = f"{inv.op_id}/{key}"
            if "error" in cell:
                ops.append(Op(op_id, "cell", key, False, f"error row: {cell['error']}", mismatch=True))
            else:
                ops.append(_outcome_op(op_id, "cell", key, {"ok": True, "reason": ""}, {"ok": True}, _value_diffs(cell, ref)))
        if inv.kind == "sweep":
            for i in range(len(cells), expected_cells):
                ops.append(Op(f"{inv.op_id}/missing{i}", "cell", "", False, "cell missing from output", mismatch=True))
        return ops

    ref = reference.get(inv.kind, {}).get(inv.ref_key)
    if ref is None:
        raise CheckError(f"no reference for {inv.kind} at {inv.ref_key}")
    if inv.kind == "dist":
        diffs = _dist_diffs(obs, ref) if obs["ok"] and ref["ok"] else []
        return [_outcome_op(inv.op_id, inv.kind, inv.point, obs, ref, diffs)]
    if inv.kind == "measure":
        diffs = _value_diffs(obs, ref) if obs["ok"] and ref["ok"] else []
        return [_outcome_op(inv.op_id, inv.kind, inv.point, obs, ref, diffs)]
    if inv.kind == "validate":
        ops = [_outcome_op(inv.op_id, inv.kind, inv.point, obs, ref)]
        ref_reports = ref.get("reports")
        for quantity, passed in obs.get("reports", {}).items():
            if ref_reports is not None and quantity not in ref_reports:
                raise CheckError(f"no reference for oracle {quantity} at {inv.ref_key}")
            ref_passed = ref_reports[quantity] if ref_reports is not None else False
            reason = "" if passed else f"FAIL {quantity}"
            ops.append(
                _outcome_op(
                    f"{inv.op_id}/{quantity}",
                    "oracle",
                    inv.point,
                    {"ok": passed, "reason": reason},
                    {"ok": ref_passed, "reason": "" if ref_passed else f"FAIL {quantity}"},
                )
            )
        return ops
    raise CheckError(f"unknown call kind {inv.kind!r}")
