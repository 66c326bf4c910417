"""Integration engines: composite Gauss-Legendre rules and a spectral sampler.

The integrands in this package are smooth Gaussians times polynomials
(plus spherical Bessel factors), so fixed high-order Gauss-Legendre
panels converge quickly; `gauss_legendre_panels` gives the composite
rules the measures build their grids from.
`GammaSampler` draws photon wavevectors exactly from the spectral
density via a tabulated inverse CDF in k and rejection in theta; the
Monte Carlo oracles average over its draws.
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
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


class GammaSampler:
    """Draws photon wavevectors from the spectral density.

    Radial part: 4096-point tabulated inverse CDF of k^2 g(k) on the
    spectrum's radial window. Polar part: rejection against the exact
    sin(theta)^3 cos(theta)^2 profile; azimuth uniform.
    """

    def __init__(self, spectrum: SpectrumModel):
        kk = np.linspace(spectrum.kmin, spectrum.kmax, 4096)
        pdf = kk**2 * eval_g(spectrum, kk)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(kk))])
        if cdf[-1] <= 0.0:
            raise DomainError("spectral density vanishes on the truncated support")
        self._ktab = kk
        self._cdf = cdf / cdf[-1]
        # sup of sin^3 cos^2 over [0, pi] at cos^2 = 2/5
        self._theta_bound = (3.0 / 5.0) ** 1.5 * (2.0 / 5.0)

    def sample_spherical(self, n: int, rng: np.random.Generator):
        """Return (k, theta, phi) arrays of n exact draws."""
        # the inverse-CDF lookup runs on the uniforms in ascending order,
        # where each search starts next to the last one, and is scattered
        # back into draw order in the buffer of the sorted uniforms
        u = rng.random(n)
        order = np.argsort(u)
        k = u[order]
        k[order] = np.interp(k, self._cdf, self._ktab)
        del u, order
        # the rejection test y < sin^3 cos^2 and phi are computed in place,
        # the same operations in the same order as the plain expressions
        theta = np.empty(n)
        filled = 0
        while filled < n:
            m = n - filled
            cand = rng.random(m)
            cand *= math.pi
            y = rng.random(m)
            y *= self._theta_bound
            bound = np.sin(cand)
            bound **= 3
            cos2 = np.cos(cand)
            np.square(cos2, out=cos2)
            bound *= cos2
            del cos2
            acc = cand[y < bound]
            take = min(len(acc), m)
            theta[filled : filled + take] = acc[:take]
            filled += take
        phi = rng.random(n)
        phi *= 2.0
        phi *= math.pi
        return k, theta, phi
