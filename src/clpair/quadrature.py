"""Integration engines: adaptive 1D Gauss-Legendre and a spectral sampler.

The integrands in this package are smooth Gaussians times polynomials
(plus Bessel factors), so high-order Gauss-Legendre panels with
worst-panel bisection converge quickly; `gauss_legendre_panels` gives
the fixed composite rules the measures build their grids from.
`GammaSampler` draws photon wavevectors exactly from the spectral
density via a tabulated inverse CDF in k and rejection in theta; the
Monte Carlo oracles average over its draws.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DomainError
from .model import QuadratureSpec, SpectrumModel, eval_g


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evals: int


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


def _panel_estimates(f, a, b, vectorized):
    """(GL32 value, GL16 value, evals) on one panel."""
    vals = []
    for order in (32, 16):
        x, w = _leggauss(order)
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
        if vectorized:
            y = np.asarray(f(nodes), dtype=float)
        else:
            y = np.array([f(t) for t in nodes], dtype=float)
        vals.append(0.5 * (b - a) * float(np.dot(w, y)))
    return vals[0], vals[1], 48


def integrate_1d(f, a: float, b: float, quad: QuadratureSpec = QuadratureSpec(), *, vectorized: bool = False) -> IntegrationResult:
    """Adaptive 1D quadrature with a nested GL32/GL16 error estimate.

    Bisects the worst panel until the summed error estimate meets
    max(abs_tol, rel_tol * |value|) or the evaluation budget runs out
    (ConvergenceError carrying the best estimate).
    """
    if not a < b:
        raise DomainError("integration interval must satisfy a < b")
    v32, v16, n = _panel_estimates(f, a, b, vectorized)
    # (negative error, a, b, value, err) max-heap on error
    heap = [(-abs(v32 - v16), a, b, v32, abs(v32 - v16))]
    evals = n
    while True:
        total = sum(item[3] for item in heap)
        err = sum(item[4] for item in heap)
        if err <= max(quad.abs_tol, quad.rel_tol * abs(total)):
            return IntegrationResult(total, err, evals)
        if evals + 96 > quad.max_evals:
            raise ConvergenceError(
                f"integrate_1d did not converge (error {err:.3e} after {evals} evals)",
                best_estimate=IntegrationResult(total, err, evals),
            )
        _, pa, pb, _, _ = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        for qa, qb in ((pa, pm), (pm, pb)):
            v32, v16, n = _panel_estimates(f, qa, qb, vectorized)
            evals += n
            heapq.heappush(heap, (-abs(v32 - v16), qa, qb, v32, abs(v32 - v16)))


class GammaSampler:
    """Draws photon wavevectors from the spectral density.

    Radial part: 4096-point tabulated inverse CDF of k^2 g(k) on the
    truncated support. Polar part: rejection against the exact
    sin(theta)^3 cos(theta)^2 profile; azimuth uniform. A filtered
    spectrum adds a rejection step against the filter weight bound.
    """

    def __init__(self, spectrum: SpectrumModel, quad: QuadratureSpec = QuadratureSpec()):
        self.spectrum = spectrum
        kmin, kmax = spectrum.radial_support(quad.truncation_sigmas)
        kk = np.linspace(kmin, kmax, 4096)
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
        k = np.interp(rng.random(n), self._cdf, self._ktab)
        theta = np.empty(n)
        filled = 0
        while filled < n:
            m = n - filled
            cand = rng.random(m) * math.pi
            y = rng.random(m) * self._theta_bound
            acc = cand[y < np.sin(cand) ** 3 * np.cos(cand) ** 2]
            take = min(len(acc), m)
            theta[filled : filled + take] = acc[:take]
            filled += take
        phi = rng.random(n) * 2.0 * math.pi
        if self.spectrum.filter is not None:
            filt = self.spectrum.filter
            w = filt.weight(k, theta) / filt.bound
            keep = rng.random(n) < w
            k, theta, phi = k[keep], theta[keep], phi[keep]
            while len(k) < n:
                k2, t2, p2 = self.sample_spherical(n - len(k), rng)
                k = np.concatenate([k, k2])
                theta = np.concatenate([theta, t2])
                phi = np.concatenate([phi, p2])
        return k, theta, phi

    def sample_cartesian(self, n: int, rng: np.random.Generator) -> np.ndarray:
        k, theta, phi = self.sample_spherical(n, rng)
        st = np.sin(theta)
        return np.stack([k * st * np.cos(phi), k * st * np.sin(phi), k * np.cos(theta)], axis=-1)
