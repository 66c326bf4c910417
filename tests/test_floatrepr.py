"""The vectorized shortest-repr kernel against Python's `repr`.

The inputs: a million random 64-bit patterns (the finite ones), every
subnormal with significand below 10^5, both zeros, the powers of 2 and
10 with both neighbours, and the values where `repr` switches between
positional and scientific notation, and blocks where +0.0, which skips
the kernel, stands in runs, alone, or next to -0.0 and the subnormals.
Mutated copies of the kernel show that the comparison catches a wrong
rounding rule or a -0.0 taken for +0.0.
"""

import inspect
import types

import numpy as np
import pytest

from clpair import _floatrepr
from clpair._floatrepr import repr_rows

# the kernel formats blocks of this many values per row in these tests
WIDTH = 1024


def _inputs() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    random = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    subnormal = np.arange(1, 10**5, dtype=np.uint64).view(np.float64)
    powers = np.array([2.0**i for i in range(-1074, 1024)] + [float(f"1e{i}") for i in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 9999999999999998.0, 1e16])
    marked = np.concatenate([powers, switch])
    marked = np.concatenate([marked, np.nextafter(marked, 0.0), np.nextafter(marked, np.inf), [0.0]])
    values = np.concatenate([random, subnormal, marked, -subnormal, -marked])
    return values[np.isfinite(values)]


INPUTS = _inputs()


def _mismatches(module, values: np.ndarray, limit: int = 5) -> list:
    """The first (value, kernel text, repr) triples that differ."""
    out = []
    for i in range(0, values.size, 64 * WIDTH):
        chunk = values[i : i + 64 * WIDTH]
        rows = np.resize(chunk, (-(-chunk.size // WIDTH), WIDTH))
        got = module.repr_rows(rows).split("\n")
        for row, line in zip(rows.tolist(), got):
            fields = line.split(",")
            out += [(v, g, repr(v)) for v, g in zip(row, fields) if g != repr(v)]
            if len(out) >= limit:
                return out[:limit]
    return out


def _mutant(old: str, new: str):
    """A copy of the kernel module with `old` (found once) replaced by `new`."""
    source = inspect.getsource(_floatrepr)
    assert source.count(old) == 1, old
    module = types.ModuleType("floatrepr_mutant")
    exec(compile(source.replace(old, new), "floatrepr_mutant", "exec"), module.__dict__)
    return module


def test_inputs_cover_the_required_sets():
    bits = INPUTS.view(np.uint64)
    assert np.count_nonzero((bits >> np.uint64(52)) & np.uint64(0x7FF) == np.uint64(0)) >= 2 * (10**5 - 1)
    assert INPUTS.size > 10**6
    assert {0.0, 1e-5, 1e-4, 9999999999999998.0, 1e16, 5e-324} <= set(INPUTS.tolist())
    assert np.signbit(INPUTS[INPUTS == 0.0]).any()


def test_matches_repr():
    assert _mismatches(_floatrepr, INPUTS) == []


def test_row_layout():
    values = np.array([[0.0, -0.0, 1.5], [1e-5, 1e16, -2.5e-308]])
    assert repr_rows(values) == "0.0,-0.0,1.5\n1e-05,1e+16,-2.5e-308\n"


def _per_value(values: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())


# +0.0 skips both steps of the kernel; these blocks put it at every place
# in a row and next to the values nearest to it
ZERO_BLOCKS = {
    "runs-at-ends": [[0.0, 0.0, 0.0, 1.5, 2.25, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7e-300]],
    "all-zero-row": [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]],
    "no-non-zero": np.zeros((4, 5)),
    "signed-zeros": [
        [0.0, -0.0, 5e-324, 0.0, 1e16, -0.0, 0.0],
        [-5e-324, 0.0, 2.2250738585072014e-308, -0.0, 0.0, -1e16, -0.0],
    ],
}


@pytest.mark.parametrize("block", ZERO_BLOCKS.values(), ids=ZERO_BLOCKS.keys())
def test_zero_blocks(block):
    values = np.array(block, dtype=np.float64)
    assert repr_rows(values) == _per_value(values)


def test_matches_repr_between_zeros():
    # the inputs with about half of them replaced by +0.0, in runs and alone
    rng = np.random.default_rng(7)
    values = INPUTS[: 2**18].copy()
    values[rng.random(values.size) < 0.3] = 0.0
    starts = rng.integers(0, values.size - 3 * WIDTH, 64)
    for start, n in zip(starts, rng.integers(1, 3 * WIDTH, 64)):
        values[start : start + n] = 0.0
    assert np.count_nonzero(values == 0.0) > values.size // 3
    assert _mismatches(_floatrepr, values) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_raises(bad):
    with pytest.raises(ValueError):
        repr_rows(np.array([[1.0, bad]]))


@pytest.mark.parametrize(
    "old,new",
    [
        # on an exact tie between s and s + 1, the upper one
        ("((vb == four) & (s & _1 == _1))", "(vb == four)"),
        # the ends of the rounding interval excluded for every significand
        ("odd = c & _1", "odd = np.ones_like(c)"),
        # ... or included for every significand
        ("odd = c & _1", "odd = np.zeros_like(c)"),
        # the +0.0 fast path also takes -0.0, which it writes as 0.0
        ("zero = bits == _0", "zero = (bits << _1) == _0"),
    ],
    ids=["ties-up", "ends-excluded", "ends-included", "negative-zero-as-zero"],
)
def test_planted_defects_are_caught(old, new):
    assert _mismatches(_mutant(old, new), INPUTS, limit=1) != []


def test_tables():
    # k is floor(log10) of the least value with the double's binary
    # exponent and spacing, and g = floor(beta) + 1 for 10^-k = beta 2^r,
    # 2^125 <= beta < 2^126
    from fractions import Fraction

    for row in (*range(2047), *range(2048 + 2, 2048 + 2047)):
        bq, irregular = row % 2048, row >= 2048
        q = max(bq, 1) - 1075
        low = Fraction(3, 4) * Fraction(2) ** q if irregular else Fraction(2) ** q
        k = int(_floatrepr._K[row])
        assert Fraction(10) ** k <= low < Fraction(10) ** (k + 1)
        t = Fraction(10) ** -k
        e2 = t.numerator.bit_length() - t.denominator.bit_length()
        e2 -= Fraction(2) ** e2 > t
        beta = t / Fraction(2) ** (e2 - 125)
        g = (int(_floatrepr._G1[row]) << 63) + int(_floatrepr._G0[row])
        assert g - 1 <= beta < g
