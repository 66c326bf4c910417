"""The mutation script's mutant generator, over every module of the package."""

import ast
import json
from pathlib import Path

import pytest
from mutation import ACCEPTED, FLIPS, SWAPS, mutants

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "clpair").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_mutant_applies(path):
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    for m in mutants(source):
        assert m.old in SWAPS or m.old in FLIPS or isinstance(ast.literal_eval(m.old), (int, float))
        m.apply(lines)


def test_every_accepted_survivor_is_a_current_mutant():
    # an entry whose line was edited or deleted matches no mutant, and
    # would accept nothing
    current = set()
    for path in MODULES:
        lines = path.read_text().splitlines(keepends=True)
        current |= {tuple(m.key(path.name, lines).values()) for m in mutants("".join(lines))}
    entries = json.loads(ACCEPTED.read_text())
    stale = [e for e in entries if (e["module"], e["source"], e["at"], e["edit"]) not in current]
    assert stale == []


def test_only_order_comparisons_outside_f_strings_are_flipped():
    source = 'a = x is None\nb = y not in z\nc = u in v < w\nd = f"{u < 2}"\n'
    assert [(m.line, m.old, m.new) for m in mutants(source)] == [(3, "<", "<=")]
