"""Integration engines: composite Gauss-Legendre rules and a spectral sampler.

The integrands in this package are smooth Gaussians times polynomials
(plus spherical Bessel factors), so fixed high-order Gauss-Legendre
panels converge quickly; `gauss_legendre_panels` gives the composite
rules the measures build their grids from (and `longitudinal_weights`
on them), and `check_budget` decides for every builder whether its grid
fits in MAX_ARRAY_BYTES.
`GammaSampler` draws photon wavevectors exactly from the spectral
density: a tabulated inverse CDF in k, located by a guide table, and a
closed-form product of uniforms for cos(theta); the Monte Carlo oracles
average over its draws.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import MAX_ARRAY_BYTES
from .errors import ResolutionError
from .model import SpectrumModel, eval_g


@lru_cache(maxsize=32)
def _leggauss(order: int):
    x, w = leggauss(order)
    return x, w


def check_budget(grid: str, count: int, item_bytes: int) -> None:
    """Raise ResolutionError if `count` items of `grid`, `item_bytes` bytes
    each, would take more than MAX_ARRAY_BYTES; every builder calls it
    before it allocates. The message names the grid and its count to four
    significant digits."""
    if count * item_bytes > MAX_ARRAY_BYTES:
        raise ResolutionError(
            f"{count:.4g} {grid} at {item_bytes} bytes each exceed the {MAX_ARRAY_BYTES / 2**20:.4g} MiB array budget"
        )


def gauss_legendre_panels(a: float, b: float, n_panels: int, order: int = 16):
    """Composite Gauss-Legendre nodes and weights on [a, b] in n_panels
    equal panels."""
    return gauss_legendre_edges(np.linspace(a, b, n_panels + 1), order)


def gauss_legendre_edges(edges: np.ndarray, order: int = 16):
    """Composite Gauss-Legendre nodes and weights with one panel between
    each two consecutive ascending `edges`."""
    x, w = _leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def _lagrange_basis(order: int, y: np.ndarray) -> np.ndarray:
    """The `order`-node Gauss-Legendre rule's Lagrange basis at `y`, on a new
    last axis, in barycentric form (Berrut & Trefethen, SIAM Rev. 46 (2004)
    501); a point on a node gets its unit row."""
    x, _ = _leggauss(order)
    diff = np.subtract.outer(y, x)
    hit = diff == 0.0
    basis = 1.0 / np.prod(np.subtract.outer(x, x) + np.eye(order), axis=1) / np.where(hit, 1.0, diff)
    basis /= basis.sum(axis=-1, keepdims=True)
    return np.where(hit.any(axis=-1, keepdims=True), hit, basis)


@lru_cache(maxsize=1)
def _overlap_table() -> np.ndarray:
    """C(s)[i, j] = int L_i(x) L_j(x - s) dx for the 16-node basis L, a row
    of 256 at each of the 32 Gauss nodes of 0 <= s <= 2, which fix C, of
    degree 31 in s; the 16-node rule on the overlap [s - 1, 1] is exact."""
    x, w = _leggauss(16)
    s = (_leggauss(32)[0] + 1.0)[:, None]
    xs, ws = 0.5 * s + (1.0 - 0.5 * s) * x, (1.0 - 0.5 * s) * w
    return np.einsum("kmi,km,kmj->kij", _lagrange_basis(16, xs), ws, _lagrange_basis(16, xs - s)).reshape(32, 256)


@lru_cache(maxsize=64)
def longitudinal_weights(n_panels: int, width: float, alpha: float) -> np.ndarray:
    """W[i, j] = int int l_i(k) l_j(k') exp(-alpha (k - k')^2) dk dk' for the
    Lagrange bases l of `n_panels` equal 16-node panels of `width` (product
    integration, Atkinson 1997, 4.2): exact however narrow the Gaussian,
    w w^T o E to rounding where the nodes resolve it. Read-only; cached for
    a 25 x 25 plane's 50 keys. Block (p, q) is R_(q-p) + R_(p-q)^T, R_d =
    h^2 int_0^2 exp(-g (s - 2d)^2) C(s) ds in panel coordinates (h = width/2,
    g = alpha h^2, C `_overlap_table`), summed where it exceeds e^-42."""
    h = 0.5 * width
    g = alpha * h * h
    d = np.arange(1 - n_panels, n_panels)[:, None]
    lo, hi = (np.clip(v * math.sqrt(42.0 / g), -2.0 * d, 2.0 - 2.0 * d) for v in (-1.0, 1.0))
    # 4 panels of 16 s-nodes reach rounding: within 3.9e-15 of max|W| of
    # 32 panels, at 4 and 6 radial panels and g from 1e-12 to 1e8
    u, wu = gauss_legendre_panels(0.0, 1.0, 4)
    offset = lo + (hi - lo) * u
    moments = np.einsum("dm,dmk->dk", (hi - lo) * wu * np.exp(-g * offset**2), _lagrange_basis(32, offset + 2.0 * d - 1.0))
    # r[n_panels - 1 + d] is R_d
    r = (h * h * moments @ _overlap_table()).reshape(-1, 16, 16)
    at = np.subtract.outer(np.arange(n_panels), np.arange(n_panels)) + (n_panels - 1)
    weights = (r[2 * (n_panels - 1) - at] + r[at].transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3).reshape(16 * n_panels, -1)
    weights.flags.writeable = False
    return weights


class GammaSampler:
    """Draws photon wavevectors from the spectral density.

    Radial part: 4096-point tabulated inverse CDF of k^2 g(k) on the
    spectrum's radial window, located by a guide table (Devroye 1986,
    III.2.4) and interpolated by np.interp's own formula. Polar part: the
    law (15/4)(1 - u^2) u^2 of u = cos(theta) makes u^2 a Beta(3/2, 2)
    variate, the product of Beta(3/2, 1) and Beta(5/2, 1) ones, so
    u = cbrt(U) V^(1/5) with U uniform on [-1, 1) and V on [0, 1), with no
    trig and no rejection; azimuth uniform. Four uniforms a draw, which
    `from_uniforms` maps to it.
    """

    def __init__(self, spectrum: SpectrumModel):
        kk = np.linspace(spectrum.kmin, spectrum.kmax, 4096)
        pdf = kk**2 * eval_g(spectrum, kk)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(kk))])
        self._ktab = kk
        self._cdf = cdf = cdf / cdf[-1]
        # np.interp's slope of each interval; zero where the interval has
        # no width, which no level ever falls in
        dc = np.diff(cdf)
        self._slope = np.divide(np.diff(kk), dc, out=np.zeros_like(dc), where=dc > 0.0)
        # the guide table: a level x falls in cell int(x cells), one cell per
        # interval. That map is monotone in x, so a table point in a lower
        # cell lies at or below x and one in a higher cell above it: only
        # the points in x's own cell are open. `_guide` is the last point
        # below the cell (point 0, cdf 0, for the first), so with at most
        # one point in the cell the interval is _guide, or the next one
        # where cdf[_guide + 1] <= x. Cells with more points, in the flat
        # tails, are searched in full (`_multi`).
        self._cells = cells = dc.size
        first = np.searchsorted((cdf * cells).astype(np.intp), np.arange(cells + 2), side="left")
        self._guide = np.maximum(first[:-1] - 1, 0)
        self._multi = np.diff(first) > 1

    def _interval(self, level: np.ndarray) -> np.ndarray:
        """The index j with cdf[j] <= level < cdf[j + 1] of each level in
        [0, 1), what np.searchsorted(cdf, level, "right") - 1 returns."""
        cell = (level * self._cells).astype(np.intp)
        multi = np.flatnonzero(self._multi[cell])
        j = np.take(self._guide, cell, mode="clip")
        del cell
        j += np.take(self._cdf[1:], j, mode="clip") <= level
        j[multi] = np.searchsorted(self._cdf, level[multi], side="right") - 1
        return j

    def from_uniforms(self, level: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        """(k, cos(theta), phi) from four equal arrays of uniforms on [0, 1),
        in place: k on `level`, cos(theta) on `u` and phi on `w`; `v` is
        spent."""
        # cos(theta) = cbrt(U) V^(1/5), U = 2 u - 1 uniform on [-1, 1)
        cos_theta = u
        cos_theta *= 2.0
        cos_theta -= 1.0
        np.cbrt(cos_theta, out=cos_theta)
        np.power(v, 0.2, out=v)
        cos_theta *= v
        # k = slope[j] (level - cdf[j]) + ktab[j] on the level's interval j,
        # np.interp's formula and order, so k is bitwise np.interp(level,
        # cdf, ktab); built in place on the levels, with v as the scratch
        # buffer. Every index is in range; mode="clip" lets take write into
        # `out` without the buffered copy its default mode makes
        k = level
        j = self._interval(k)
        k -= np.take(self._cdf, j, out=v, mode="clip")
        k *= np.take(self._slope, j, out=v, mode="clip")
        k += np.take(self._ktab, j, out=v, mode="clip")
        phi = w
        phi *= 2.0
        phi *= math.pi
        return k, cos_theta, phi
