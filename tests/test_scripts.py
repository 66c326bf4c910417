"""Tests of the experiment scripts: each parses its options, and each run
writes its table and prints its summary."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, env=src_env(), cwd=ROOT, timeout=300)


def test_scripts_found():
    assert {s.stem for s in SCRIPTS} == {"longitudinal_purity", "phase_influence"}


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
def test_help(script):
    res = run(script, "--help")
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout


def rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_longitudinal_purity_run(tmp_path):
    res = run(ROOT / "scripts" / "longitudinal_purity.py", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert len(rows(tmp_path / "purity_z.csv")) == 123
    crossings = [line.split("dk_ph = ")[1].split()[0] for line in res.stdout.splitlines() if "drops below 2/3" in line]
    assert crossings == ["57.443", "4.833", "0.407"]


def test_phase_influence_run(tmp_path):
    res = run(ROOT / "scripts" / "phase_influence.py", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert len(rows(tmp_path / "epr_contour.csv")) == 366
