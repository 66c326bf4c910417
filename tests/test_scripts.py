"""Smoke tests of the experiment scripts: each must import and parse its
options."""

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

