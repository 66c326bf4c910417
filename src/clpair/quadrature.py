"""Integration engines: composite Gauss-Legendre rules and a spectral sampler.

The integrands in this package are smooth Gaussians times polynomials
(plus spherical Bessel factors), so fixed high-order Gauss-Legendre
panels converge quickly; `gauss_legendre_panels` gives the composite
rules the measures build their grids from.
`GammaSampler` draws photon wavevectors exactly from the spectral
density via a tabulated inverse CDF in k and rejection in cos(theta);
the Monte Carlo oracles average over its draws.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .model import SpectrumModel, eval_g


@lru_cache(maxsize=32)
def _leggauss(order: int):
    x, w = leggauss(order)
    return x, w


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


class GammaSampler:
    """Draws photon wavevectors from the spectral density.

    Radial part: 4096-point tabulated inverse CDF of k^2 g(k) on the
    spectrum's radial window. Polar part: rejection in u = cos(theta)
    against the exact profile (1 - u^2) u^2, the law sin^3(theta)
    cos^2(theta) d(theta) written in u, with no trig; azimuth uniform.
    """

    def __init__(self, spectrum: SpectrumModel):
        kk = np.linspace(spectrum.kmin, spectrum.kmax, 4096)
        pdf = kk**2 * eval_g(spectrum, kk)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(kk))])
        if cdf[-1] <= 0.0:
            raise DomainError("spectral density vanishes on the truncated support")
        self._ktab = kk
        self._cdf = cdf / cdf[-1]

    def sample_k_cos_phi(self, n: int, rng: np.random.Generator):
        """Return (k, cos(theta), phi) arrays of n exact draws."""
        # the inverse-CDF lookup runs on the uniforms in ascending order,
        # where each search starts next to the last one, and is scattered
        # back into draw order in the buffer of the sorted uniforms
        level = rng.random(n)
        order = np.argsort(level)
        k = level[order]
        k[order] = np.interp(k, self._cdf, self._ktab)
        del level, order
        # each round draws one candidate u on [-1, 1) and then one height on
        # [0, 1/4), the sup of (1 - u^2) u^2 at u^2 = 1/2, per draw still
        # missing; 8 of 15 candidates are accepted
        cos_theta = np.empty(n)
        filled = 0
        while filled < n:
            m = n - filled
            cand = rng.uniform(-1.0, 1.0, m)
            y = rng.uniform(0.0, 0.25, m)
            u2 = np.square(cand)
            bound = 1.0 - u2
            bound *= u2
            del u2
            acc = cand[y < bound]
            cos_theta[filled : filled + acc.size] = acc
            filled += acc.size
        phi = rng.random(n)
        phi *= 2.0
        phi *= math.pi
        return k, cos_theta, phi
