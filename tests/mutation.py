"""Mutation testing for one module of `src/clpair`, outside tier-1.

Usage:
    python tests/mutation.py distributions.py

Each mutant is one text edit to the module's source: a binary or
augmented + swapped with -, a * swapped with /, a comparison flipped at
its boundary (< with <=, > with >=, == with !=), or a numeric constant
raised and lowered by 0.1% and by one. The edits are made on the text,
not on an unparsed tree, so comments and the tests that read source text
see the module as written.

Every mutant runs the module's test selection (`SELECTIONS`) with -x in a
temporary copy of the checkout: the files git tracks or does not ignore
(so `perfbench/reference.json` too), one copy per worker, on
len(os.sched_getaffinity(0)) workers; a module is mutated once it has a
selection. A mutant is killed when its selection fails, times out (three
times the unmutated run) or runs out of its 3 GiB address space; it
survives when the selection passes.

A survivor listed in `mutation_survivors.json` beside this script, keyed
by module, source line, offset and edit, is accepted with its reason:
equivalent, safe direction, or inert below a stated bound. Any other
survivor is printed as new, and gets a test or its code deleted. The
script exits 1 when there is a new survivor, and prints killed / total.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCEPTED = Path(__file__).resolve().with_name("mutation_survivors.json")

# the tests each module's mutants run, those likeliest to fail first
SELECTIONS = {
    "distributions.py": [
        "tests/test_distributions.py",
        "tests/test_oracles.py",
        "tests/test_acceptance.py",
        "tests/test_model.py",
        "tests/test_quadrature.py",
        "tests/test_cli.py",
    ],
    "oracles.py": [
        "tests/test_oracles.py",
        "tests/test_acceptance.py",
        "tests/test_measures.py",
        "tests/test_quadrature.py",
        "tests/test_cli.py",
    ],
    "quadrature.py": [
        "tests/test_quadrature.py",
        "tests/test_measures.py",
        "tests/test_distributions.py",
        "tests/test_oracles.py",
        "tests/test_acceptance.py",
        "tests/test_cli.py",
    ],
}

SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*="}
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div)
ORDERS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
# address space of one test run: a mutant that sizes a grid past it is killed
MEMORY_LIMIT = 3 * 2**30
# the limit is set by the child itself: a preexec_fn is unsafe in a threaded parent
PYTEST = (
    "import resource, sys, pytest; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT})); "
    "sys.exit(pytest.main(sys.argv[1:]))"
)
WORKERS = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Mutant:
    line: int  # 1-based
    col: int  # character offset in the line
    old: str
    new: str

    def apply(self, lines: list[str]) -> str:
        text = lines[self.line - 1]
        assert text[self.col : self.col + len(self.old)] == self.old
        edited = list(lines)
        edited[self.line - 1] = text[: self.col] + self.new + text[self.col + len(self.old) :]
        return "".join(edited)

    def key(self, module: str, lines: list[str]) -> dict:
        """The fields an accepted survivor is matched on: the module, the
        stripped source line, the edit's offset in it and the edit."""
        text = lines[self.line - 1]
        at = self.col - (len(text) - len(text.lstrip()))
        return {"module": module, "source": text.strip(), "at": at, "edit": f"{self.old} -> {self.new}"}


def _constant_edits(value) -> list[str]:
    """A numeric literal's value raised and lowered by 0.1% and by one;
    an integer stays an integer, and an edit that leaves it unchanged or
    repeats another is dropped."""
    if isinstance(value, int):
        edits = [round(value * 1.001), round(value * 0.999), value + 1, value - 1]
    else:
        edits = [value * 1.001, value * 0.999, value + 1.0, value - 1.0]
    out = []
    for e in edits:
        s = repr(e)
        if e != value and s not in out:
            out.append(s)
    return out


def mutants(source: str) -> list[Mutant]:
    """Every mutant of `source`, in source order."""
    tree = ast.parse(source)
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type in (tokenize.OP, tokenize.NUMBER)]
    # ast's columns are UTF-8 byte offsets, tokenize's are characters
    lines = source.splitlines(keepends=True)

    def pos(line: int, byte_col: int) -> tuple[int, int]:
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    def op_between(start, end, ops) -> tokenize.TokenInfo:
        (hit,) = [t for t in tokens if t.type == tokenize.OP and t.string in ops and start <= t.start and t.end <= end]
        return hit

    # an f-string's fields only format messages, and before Python 3.12 the
    # f-string is a single token: nothing in one is mutated
    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, BINARY):
            spans = [(node.left, node.right, ("+", "-", "*", "/"))]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, BINARY):
            spans = [(node.target, node.value, ("+=", "-=", "*=", "/="))]
        elif isinstance(node, ast.Compare):
            # is, is not, in and not in are name tokens and are not flipped
            operands = [node.left, *node.comparators]
            spans = [(a, b, tuple(FLIPS)) for op, a, b in zip(node.ops, operands, operands[1:]) if isinstance(op, ORDERS)]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            line, col = pos(node.lineno, node.col_offset)
            (tok,) = [t for t in tokens if t.type == tokenize.NUMBER and t.start == (line, col)]
            found += [Mutant(line, col, tok.string, e) for e in _constant_edits(node.value)]
            continue
        else:
            continue
        for a, b, ops in spans:
            tok = op_between(pos(a.end_lineno, a.end_col_offset), pos(b.lineno, b.col_offset), ops)
            found.append(Mutant(*tok.start, tok.string, (SWAPS | FLIPS)[tok.string]))
    return sorted(set(found), key=lambda m: (m.line, m.col, m.new))


def _copy_checkout(dest: Path) -> None:
    """The checkout's files that git tracks or does not ignore, as they are
    on disk, into dest."""
    files = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.split()
    for name in filter(lambda n: (ROOT / n).is_file(), files):
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)


def _run(copy: Path, tests: list[str], timeout: float) -> tuple[str, float]:
    """'passed', 'failed' or 'timeout' for the selection in `copy`, and its seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider", *tests]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - t0
    return ("passed" if code == 0 else "failed"), time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", choices=sorted(SELECTIONS), help="a file name under src/clpair")
    args = parser.parse_args(argv)

    rel = Path("src/clpair") / args.module
    source = (ROOT / rel).read_text()
    lines = source.splitlines(keepends=True)
    todo = mutants(source)
    tests = SELECTIONS[args.module]
    accepted = {(e["module"], e["source"], e["at"], e["edit"]): e for e in json.loads(ACCEPTED.read_text())}

    with tempfile.TemporaryDirectory(prefix="clpair-mutation-") as tmp:
        copies = queue.Queue()
        for i in range(WORKERS):
            _copy_checkout(Path(tmp) / str(i))
            copies.put(Path(tmp) / str(i))
        status, base = _run(Path(tmp) / "0", tests, timeout=3600.0)
        if status != "passed":
            print(f"the unmutated selection does not pass ({status}); no mutant run", file=sys.stderr)
            return 2
        print(f"{len(todo)} mutants of {rel}; the unmutated selection takes {base:.1f} s")

        def one(m: Mutant) -> tuple[Mutant, str]:
            copy = copies.get()
            try:
                (copy / rel).write_text(m.apply(lines))
                return m, _run(copy, tests, timeout=3.0 * base + 10.0)[0]
            finally:
                (copy / rel).write_text(source)
                copies.put(copy)

        results = []
        with ThreadPoolExecutor(WORKERS) as pool:
            for m, status in pool.map(one, todo):
                results.append((m, status))
                print(f"{len(results)}/{len(todo)} {rel}:{m.line}:{m.col + 1}: {m.old} -> {m.new} {status}", file=sys.stderr, flush=True)

    new, survived = 0, set()
    killed = sum(status != "passed" for _, status in results)
    for m, status in results:
        if status != "passed":
            continue
        key = m.key(args.module, lines)
        survived.add(tuple(key.values()))
        entry = accepted.get(tuple(key.values()))
        if entry is None:
            new += 1
            print(f"NEW SURVIVOR {rel}:{m.line}:{m.col + 1}: {key['edit']}  | {key['source']}")
        else:
            print(f"accepted {rel}:{m.line}:{m.col + 1}: {key['edit']}  ({entry['category']})")
    # an accepted survivor that no longer survives, or whose line changed
    for key in accepted.keys() - survived:
        if key[0] == args.module:
            print(f"stale accepted entry: {key[3]} at {key[2]} | {key[1]}")
    print(f"{killed} / {len(results)} killed, {len(results) - killed} survived, {new} new")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
