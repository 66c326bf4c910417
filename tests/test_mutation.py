"""The mutation script's mutant generator, over every module of the package."""

import ast
from pathlib import Path

import pytest
from mutation import FLIPS, SWAPS, mutants

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "clpair").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_mutant_applies(path):
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    for m in mutants(source):
        assert m.old in SWAPS or m.old in FLIPS or isinstance(ast.literal_eval(m.old), (int, float))
        m.apply(lines)


def test_only_order_comparisons_outside_f_strings_are_flipped():
    source = 'a = x is None\nb = y not in z\nc = u in v < w\nd = f"{u < 2}"\n'
    assert [(m.line, m.old, m.new) for m in mutants(source)] == [(3, "<", "<=")]
