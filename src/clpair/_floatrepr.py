"""Shortest round-trip text of float64 arrays, byte-identical to `repr`.

`repr_rows(values)` formats a 2D array as CSV text, each row's values
joined by "," and ended by "\\n", with the bytes of
`",".join(map(repr, row)) + "\\n"` but no Python call per value.

Two steps, both on whole numpy arrays:

1. The shortest decimal f 10^e that reads back as the double, and of
   those the closest to it (ties to an even f), by Schubfach: R.
   Giulietti, "The Schubfach way to render doubles" (2020), the
   algorithm of the JDK's `Double.toString`. It works in fixed-width
   integers: a 126-bit approximation g of 10^-k per decimal exponent k,
   and products cp g 2^-127 rounded to odd. Two JDK rules are left out,
   because Python's `repr` has neither: the JDK writes at least two
   digits (4.9e-324 where `repr` writes 5e-324), and so it tries the
   one-digit-shorter candidate only from s >= 100; here it is tried
   from s >= 10.
2. The text of f and e laid out as `repr` does: positional for
   1e-4 <= |x| < 1e16 (with ".0" on integers), otherwise d.ddde+XX
   with at least two exponent digits. Each value's length gives its
   offset in one exact-size byte buffer, and the sign, digits, dot and
   exponent are placed with fancy indexing into it.

Both steps see only the values whose bits are not all zero. An exact
+0.0 is always "0.0": the buffer starts as '0's, so it needs only its
dot and its separator, placed with those of every other +0.0. Its cost
is then a few bytes of bookkeeping, and a grid that is mostly zeros
formats in time proportional to its other values. -0.0 takes the full
path and keeps its sign.

Every bit operation runs on np.uint64 operands on both sides, so no
result depends on numpy's type-promotion rules.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_0, _1, _2, _10, _32, _63 = _U(0), _U(1), _U(2), _U(10), _U(32), _U(63)
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_EXP_MASK = _U(0x7FF)  # biased exponent of inf and nan
_T_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)

# the least and the greatest binary exponent q of a finite double,
# x = c 2^q; the table of g runs over the k = flog10pow2(q) between them
_Q_MIN = -1074
_Q_MAX = 2046 - 1075


def _flog10pow2(e: int) -> int:
    """floor(log10(2^e)) for |e| <= 5_456_721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 2^e)) for |e| <= 5_456_721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10^e)) for |e| <= 1_838_394."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """g = floor(beta) + 1 where 10^-k = beta 2^r and 2^125 <= beta < 2^126."""
    r = _flog2pow10(-k) - 125
    num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
    if r >= 0:
        den <<= r
    else:
        num <<= -r
    return num // den + 1


def _tables() -> tuple[np.ndarray, ...]:
    """Per-double constants k, h, g1, g0, indexed by bq + 2048 irregular.

    bq is the biased exponent; irregular marks a power of two above the
    least normal, whose lower neighbour is half as far as the upper.
    g = g1 2^63 + g0 approximates 10^-k, and h sets cp = 4 c 2^h, so that
    cp g 2^-127 is 4 x 10^-k.
    """
    k_min = _flog10pow2(_Q_MIN)
    g = [_g(k) for k in range(k_min, _flog10pow2(_Q_MAX) + 1)]
    g1 = np.array([x >> 63 for x in g], np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], np.uint64)
    q = [max(bq, 1) - 1075 for bq in range(2048)] * 2
    k = [_flog10pow2(x) for x in q[:2048]] + [_flog10_three_quarters_pow2(x) for x in q[2048:]]
    h = np.array([x + _flog2pow10(-y) + 2 for x, y in zip(q, k)], np.uint64)
    row = np.array(k) - k_min
    return np.array(k, np.int64), h, g1[row], g0[row]


_K, _H, _G1, _G0 = _tables()
# 10^0 .. 10^17; f has at most 17 digits
_POW10 = np.array([10**i for i in range(18)], np.uint64)
_MAX_RUN = 17


def _mulhi(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a (b1 2^32 + b0), from
    32-bit halves."""
    a0, a1 = a & _M32, a >> _32
    p01 = a0 * b1
    p10 = a1 * b0
    mid = a0 * b0
    mid >>= _32
    mid += p01 & _M32
    mid += p10 & _M32
    mid >>= _32
    p01 >>= _32
    p10 >>= _32
    a1 *= b1
    a1 += p01
    a1 += p10
    a1 += mid
    return a1


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp g 2^-127 rounded to odd, for g = g1 2^63 + g0 (the paper's figure 8)."""
    c0, c1 = cp & _M32, cp >> _32
    z = g1 * cp  # the low word of g1 cp; the product wraps, as intended
    z >>= _1
    z += _mulhi(g0, c0, c1)
    vb = _mulhi(g1, c0, c1)
    vb += z >> _63
    z &= _M63
    z += _M63
    z >>= _63
    vb |= z
    return vb


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with |x| = f 10^e the shortest-closest decimal of each
    finite double x (given by its bits), f without trailing zeros."""
    bq = bits >> _U(52)
    bq &= _EXP_MASK
    if bq.max(initial=_0) == _EXP_MASK:
        raise ValueError("only finite values have a shortest decimal")
    c = bits & _T_MASK
    irregular = (c == _0) & (bq > _1)
    np.bitwise_or(c, _C_MIN, out=c, where=bq > _0)
    zero = c == _0
    c[zero] = _1  # any significand; zeros get f = 0 below
    bq[irregular] += _U(2048)
    row = bq.astype(np.intp)
    del bq
    e, h, g1, g0 = _K[row], _H[row], _G1[row], _G0[row]
    del row

    # x scaled by 4 10^-k (vb), and its rounding interval [lo, hi]: the
    # midpoints to the neighbours, 4 c - 2 (4 c - 1 for an irregular x)
    # and 4 c + 2, scaled alike. The endpoints round to x when c is
    # even, so for an odd c they are moved in by one.
    odd = c & _1
    c <<= _2
    vb = _rop(g1, g0, c << h)
    cp = c - _2
    cp += irregular
    cp <<= h
    lo = _rop(g1, g0, cp)
    lo += odd
    np.add(c, _2, out=cp)
    cp <<= h
    hi = _rop(g1, g0, cp)
    hi -= odd
    del g1, g0, c, cp, h, odd, irregular
    s = vb >> _2

    # one digit shorter: at most one multiple of 10 10^k lies in the
    # interval; 4 s' and 4 t' are the scaled ends of s's decade
    sp = s // _10
    sp *= _10
    four = sp << _2
    upin = lo <= four
    four += _U(40)
    wpin = four <= hi
    shorter = (upin != wpin) & (s >= _10)
    # else s or s + 1, whichever lies in the interval; if both do, the
    # closer to x, and the even one on a tie
    np.left_shift(s, _2, out=four)
    uin = lo <= four
    four += _U(4)
    win = four <= hi
    four -= _2
    closer_t = (vb > four) | ((vb == four) & (s & _1 == _1))
    del four, lo, hi, vb
    # at least one of s and s + 1 lies in the interval
    s += win & (~uin | closer_t)
    sp += wpin * _10
    np.copyto(s, sp, where=shorter)
    f = s
    del sp, s
    f[zero] = _0
    e[zero] = 0

    live = np.flatnonzero(f // _10 * _10 == f)
    live = live[~zero[live]]
    while live.size:
        f[live] //= _10
        e[live] += 1
        live = live[f[live] // _10 * _10 == f[live]]
    return f, e


def repr_rows(values: np.ndarray) -> str:
    """The rows of the non-empty 2D float64 array `values` as text: each
    value as its `repr`, joined by "," and each row ended by "\\n".
    Raises ValueError on a nan or an infinity."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.reshape(-1).view(np.uint64)
    # +0.0 is "0.0"; the fields formatted below are all the others
    zero = bits == _0
    nonzero = np.flatnonzero(~zero)
    f, decpt = _shortest(bits[nonzero])
    n = np.searchsorted(_POW10[1:], f, side="right") + 1  # digits of f
    decpt += n  # |x| = 0.d1..dn 10^decpt
    sci = (decpt <= -4) | (decpt > 16)
    neg = (bits[nonzero] >> _63) == _1
    xp = np.abs(decpt - 1)  # the exponent of d.ddde-XX, unsigned
    xp_long = xp >= 100  # with three digits

    # each field's separator column, and the column of its first
    # character after the sign; a +0.0 field is "0.0" and its separator
    width = np.where(sci, n + (n > 1) + 4 + xp_long, np.maximum(decpt, 1) + 1 + np.maximum(n - decpt, 1))
    width += neg
    width += 1
    length = np.full(bits.size, 4)
    length[nonzero] = width
    end = np.cumsum(length)
    end -= 1
    del length
    end_nz = end[nonzero]
    head = end_nz - width
    head += 1 + neg
    del width, nonzero
    # every byte not placed below is a '0': the "0." and the zeros after
    # it in 0.000ddd, the trailing zeros of ddd00.0 and its final digit,
    # and both zeros of a +0.0
    buf = np.full(int(end[-1]) + 1, ord("0"), np.uint8)

    # the sign and the dot go in unconditionally, each before a write
    # that replaces it where there is none: the separator before an
    # unsigned field (the last one's for the first field), and the 'e'
    # of d e-XX
    buf[head - 1] = ord("-")
    sep = np.full(x.shape, ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    buf[end] = sep.reshape(-1)
    buf[end[zero] - 2] = ord(".")
    del sep, end, zero
    buf[head + np.where(sci, 1, np.maximum(decpt, 1))] = ord(".")
    i = np.flatnonzero(sci)
    e_col = head[i] + n[i] + (n[i] > 1)
    buf[e_col] = ord("e")
    buf[e_col + 1] = np.where(decpt[i] > 0, ord("+"), ord("-"))
    del i, e_col

    # three right-aligned runs of digits per field, (value, column of the
    # last digit, number of digits): the digits before the dot (one in
    # d.ddde-XX, none in 0.000ddd), those after it, and the exponent's
    n_int = np.where(sci, 1, np.minimum(np.maximum(decpt, 0), n))
    n_frac = n - n_int
    scale = _POW10[n_frac]
    whole = f // scale
    f -= whole * scale
    value = np.concatenate((whole, f, xp.astype(np.uint64)))
    del whole, f, scale
    last = np.concatenate((head + n_int - 1, head + n + np.where(sci, 0, np.maximum(1 - decpt, 0)), end_nz - 1))
    count = np.concatenate((n_int, n_frac, np.where(sci, 2 + xp_long, 0))).astype(np.uint8)
    del n_int, n_frac, head, end_nz, n, decpt, sci, xp, xp_long, neg
    # longest run first, so that the runs still writing in the r-th pass
    # are a prefix
    order = np.argsort(_MAX_RUN - count, kind="stable")
    value, last = value[order], last[order]
    del order
    longer = count.size - np.cumsum(np.bincount(count, minlength=_MAX_RUN + 1))
    for live in longer[: int(count.max(initial=0))].tolist():
        value, last = value[:live], last[:live]
        q = value // _10
        value -= q * _10
        digit = value.astype(np.uint8)
        digit += np.uint8(ord("0"))
        buf[last] = digit
        last -= 1
        value = q
    return buf.tobytes().decode("ascii")
