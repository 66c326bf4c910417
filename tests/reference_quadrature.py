"""Adaptive 1D Gauss-Legendre quadrature, a pure-numpy reference integrator.

Bisects the worst panel of a nested GL32/GL16 pair until the summed error
estimate meets the tolerance of a `QuadratureSpec`. The tests use it as a
reference for integrals over the model's densities; `TestIntegrate1D` in
`test_quadrature.py` checks it on integrals with known values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from clpair.errors import ConvergenceError, DomainError
from clpair.model import QuadratureSpec

_RULES = {order: leggauss(order) for order in (32, 16)}


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evals: int


def _panel_estimates(f, a, b, vectorized):
    """(GL32 value, GL16 value, evals) on one panel."""
    vals = []
    for order in (32, 16):
        x, w = _RULES[order]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
        if vectorized:
            y = np.asarray(f(nodes), dtype=float)
        else:
            y = np.array([f(t) for t in nodes], dtype=float)
        vals.append(0.5 * (b - a) * float(np.dot(w, y)))
    return vals[0], vals[1], 48


def integrate_1d(
    f,
    a: float,
    b: float,
    quad: QuadratureSpec = QuadratureSpec(),
    *,
    vectorized: bool = False,
    max_evals: int = 2_000_000,
) -> IntegrationResult:
    """Adaptive 1D quadrature with a nested GL32/GL16 error estimate.

    Bisects the worst panel until the summed error estimate meets
    max(abs_tol, rel_tol * |value|) or `max_evals` integrand evaluations
    are spent (ConvergenceError carrying the best estimate).
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
        if evals + 96 > max_evals:
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
