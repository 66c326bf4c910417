"""Smoke tests of the experiment scripts: each must import and parse its
options; the regime map, which builds a `RunConfig` and renders through
the CLI's helpers, must run end to end on a 2x2 plane, and the joint
distributions script end to end at its three beams."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run(script: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


def test_scripts_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
def test_help(script):
    res = run(script, "--help")
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout


def test_regime_map_runs(tmp_path):
    res = run(ROOT / "scripts" / "regime_map.py", "--steps", "2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "wrote 4 cells" in res.stdout
    for name in ("regime", "purity_sc", "d2", "purity_z"):
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg")


def test_joint_distributions_runs(tmp_path):
    res = run(ROOT / "scripts" / "joint_distributions.py", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(
        f"{kind}_{label}.csv" for kind in ("momentum", "position") for label in ("wide", "mid", "narrow")
    )
