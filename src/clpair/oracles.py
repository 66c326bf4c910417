"""Brute-force validators for the closed-form machinery.

Each oracle recomputes a quantity (Monte Carlo sampling, the Gram-matrix
Schmidt purity, discrete grid moments, finite differences) and reports
the discrepancy against the primary value with an explicit tolerance.
Most share no code path with the primary implementation. The Schmidt
purity does: it compares the Gram-matrix purity with the overlap double
sum, two sums over the same `photon_marginal_kx` samples, so it cannot
detect a defect in the marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .constants import MC_MIN_SAMPLES, MC_SAMPLES, MC_SEED
from .distributions import N_KX, JointGrid, joint_position, momentum_grid, photon_marginal_kx
from .errors import DomainError, ResolutionError
from .measures import purity_sc, rel_pos_variance_closed, total_wavevector_variance
from .model import (
    PURITY_QUAD,
    BeamParams,
    QuadratureSpec,
    SpectrumModel,
    eval_gamma_cartesian,
    gamma_cartesian_derivatives,
    psi_ini_x_sq,
)
from .quadrature import GammaSampler, gauss_legendre_panels


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    value: float
    oracle_value: float
    discrepancy: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def compare(cls, quantity: str, value: float, oracle_value: float, tolerance: float, **metadata) -> "OracleReport":
        disc = abs(value - oracle_value)
        return cls(quantity, value, oracle_value, disc, tolerance, disc <= tolerance, metadata)


# ---------------------------------------------------------------------------
# Monte Carlo purity

def mc_purity(
    beam: BeamParams,
    spectrum: SpectrumModel,
    n: int = MC_SAMPLES,
    seed: int = MC_SEED,
    quad: QuadratureSpec = PURITY_QUAD,
) -> OracleReport:
    """Purity as a sampled expectation over independent photon pairs.

    Draws k, k' i.i.d. from the spectral density and averages the
    double-Gaussian overlap factor; agrees with the quadrature purity
    within 3 standard errors by construction of the estimator. `quad`
    sets the tolerances of the primary `purity_sc`.
    """
    if n < MC_MIN_SAMPLES:
        raise DomainError(f"mc_purity requires at least {MC_MIN_SAMPLES} sample pairs, got {n}")
    sampler = GammaSampler(spectrum)
    rng = np.random.default_rng(seed)
    k1, th1, ph1 = sampler.sample_spherical(n, rng)
    k2, th2, ph2 = sampler.sample_spherical(n, rng)
    # in place on the draws: |k| is the drawn k, and with a = k sin(theta)
    # the transverse distance is (a1 - a2)^2 + 4 a1 a2 sin^2((phi1 - phi2)/2),
    # the law of cosines in the form that does not cancel for close pairs
    a1 = np.sin(th1, out=th1)
    a1 *= k1
    a2 = np.sin(th2, out=th2)
    a2 *= k2
    vals = np.subtract(ph1, ph2, out=ph1)
    vals *= 0.5
    np.sin(vals, out=vals)
    np.square(vals, out=vals)
    vals *= a1
    vals *= a2
    vals *= 4.0
    a1 -= a2
    vals += np.square(a1, out=a1)
    vals /= -4.0 * beam.dq_perp**2
    k1 -= k2
    np.square(k1, out=k1)
    k1 *= beam.c_over_vz**2 / (4.0 * beam.dq_par**2)
    vals -= k1
    np.exp(vals, out=vals)
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    primary = purity_sc(beam, spectrum, quad)
    return OracleReport.compare(
        "purity_sc_mc", primary, estimate, 3.0 * stderr, n=n, seed=seed, stderr=stderr
    )


# ---------------------------------------------------------------------------
# 1D Schmidt purity

def schmidt_purity_1d(
    dq_perp: float,
    g_kx: Callable[[np.ndarray], np.ndarray],
    kx_grid: np.ndarray,
    qx_grid: np.ndarray,
) -> OracleReport:
    """Schmidt purity of the 1D amplitude psi(q, k) = psi_x(q + k) sqrt(G(k)).

    Compares the singular-value purity sum(s^4)/sum(s^2)^2 against the
    overlap formula int int G(k) G(k') exp(-(k - k')^2 / (4 dq_perp^2)).
    `g_kx` must be a normalized 1D density on the k axis.
    """
    kx = np.asarray(kx_grid, dtype=float)
    qx = np.asarray(qx_grid, dtype=float)
    if kx.size < 16 or qx.size < 16:
        raise ResolutionError("grids must have at least 16 points")
    dk = float(kx[1] - kx[0])
    dq = float(qx[1] - qx[0])
    gk = np.asarray(g_kx(kx), dtype=float)
    # resolution contract: >= 8 points per Gaussian width on both axes
    if dq > dq_perp / 8.0:
        raise ResolutionError("q grid under-resolves the electron width")
    mk = np.sum(gk * kx) * dk
    sig_g = math.sqrt(max(np.sum(gk * (kx - mk) ** 2) * dk, 0.0))
    if sig_g > 0.0 and dk > sig_g / 8.0:
        raise ResolutionError("k grid under-resolves the spectral marginal")

    # one n_q x n_k buffer: the sum q + k, turned into the amplitude in place
    amp = qx[:, None] + kx[None, :]
    psi_ini_x_sq(dq_perp, amp, out=amp)
    np.sqrt(amp, out=amp)
    amp *= np.sqrt(np.maximum(gk, 0.0))
    amp *= math.sqrt(dq * dk)
    # the singular values s of amp are the square roots of the eigenvalues
    # of amp^T amp, so sum(s^2) is its trace and sum(s^4) its squared
    # Frobenius norm: no SVD is needed
    gram = amp.T @ amp
    del amp
    trace = np.trace(gram)
    schmidt = float(np.sum(np.square(gram, out=gram)) / trace**2)
    del gram

    # G(k) G(k') exp(-(k - k')^2 / (4 dq_perp^2)), built in place in one
    # n_k x n_k buffer
    pairs = np.subtract.outer(kx, kx)
    np.square(pairs, out=pairs)
    np.negative(pairs, out=pairs)
    pairs /= 4.0 * dq_perp**2
    np.exp(pairs, out=pairs)
    pairs *= np.multiply.outer(gk, gk)
    overlap = float(np.sum(pairs) * dk * dk)
    return OracleReport.compare(
        "schmidt_purity_1d", overlap, schmidt, 1e-3, n_q=qx.size, n_k=kx.size
    )


# ---------------------------------------------------------------------------
# grid moments

def variance_from_grid(
    grid: JointGrid,
    which: str,
    beam: BeamParams,
    spectrum: Optional[SpectrumModel] = None,
) -> OracleReport:
    """Discrete grid variance versus the corresponding closed form.

    `which` is "total_wavevector" (variance of q_x + k_x on a momentum
    grid, closed form dq_perp^2, 0.5%) or "relative_position" (variance
    of x_el - x_ph on a position grid, closed form with zero phase, 2%).
    """
    total = grid.integral()
    if not abs(total - 1.0) <= 0.01:
        raise DomainError(f"grid is not normalized (integral {total:.4f})")
    if which == "total_wavevector":
        mean, var = grid.moments(lambda a, b: a + b)
        ref = total_wavevector_variance(beam)
        rel_tol = 0.005
    elif which == "relative_position":
        if spectrum is None:
            raise DomainError("relative_position comparison needs the spectrum")
        mean, var = grid.moments(lambda a, b: a - b)
        ref = rel_pos_variance_closed(beam, spectrum)
        rel_tol = 0.02
    else:
        raise DomainError(f"unknown variance target {which!r}")
    return OracleReport.compare(
        f"variance_{which}", ref, var, rel_tol * abs(ref), mean=mean
    )


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient_check(
    spectrum: SpectrumModel,
    points: np.ndarray,
    step: float = 1e-4,
) -> OracleReport:
    """Central differences of the spectral density vs analytic partials.

    Checks first and second transverse partials at the given Cartesian
    points; reports the maximum relative error against the local density
    scale.
    """
    if not step < spectrum.dk_ph / 10.0:
        raise DomainError("step must be small compared with the spectral width")
    pts = np.asarray(points, dtype=float)
    gam, gx, gy, gxx, gyy = gamma_cartesian_derivatives(spectrum, pts)
    worst = 0.0
    for axis, (d1, d2) in enumerate([(gx, gxx), (gy, gyy)]):
        e = np.zeros(3)
        e[axis] = step
        up = eval_gamma_cartesian(spectrum, pts + e)
        dn = eval_gamma_cartesian(spectrum, pts - e)
        fd1 = (up - dn) / (2.0 * step)
        fd2 = (up - 2.0 * gam + dn) / step**2
        # relative to the characteristic magnitude of each derivative order
        worst = max(
            worst,
            float(np.max(np.abs(fd1 - d1))) / (float(np.max(np.abs(d1))) + 1e-300),
            float(np.max(np.abs(fd2 - d2))) / (float(np.max(np.abs(d2))) + 1e-300),
        )
    return OracleReport.compare(
        "gamma_partials_fd", 0.0, worst, 1e-6, n_points=pts.shape[0], step=step
    )


# ---------------------------------------------------------------------------
# closed-form identity for the longitudinal variance term

def longitudinal_term_identity(beam: BeamParams, spectrum: SpectrumModel) -> OracleReport:
    """(1/8) int (c/v)^2 kperp^2 Gamma / (dq_par^2 k^2) d3k = (c/v)^2 / (14 dq_par^2).

    The angular average of kperp^2/k^2 over the emission profile is 4/7;
    verified here by direct spherical quadrature.
    """
    kn, kw = gauss_legendre_panels(spectrum.kmin, spectrum.kmax, 8, 16)
    tn, tw = gauss_legendre_panels(0.0, math.pi, 8, 16)
    from .model import eval_f, eval_g

    radial = float(np.sum(kw * kn**2 * eval_g(spectrum, kn)))
    angular = 2.0 * math.pi * float(np.sum(tw * np.sin(tn) ** 3 * eval_f(tn)))
    lhs = beam.c_over_vz**2 / (8.0 * beam.dq_par**2) * radial * angular
    rhs = beam.c_over_vz**2 / (14.0 * beam.dq_par**2)
    return OracleReport.compare("longitudinal_variance_term", rhs, lhs, 1e-6 * abs(rhs))


# ---------------------------------------------------------------------------
# factorized momentum density vs direct marginalization

def momentum_factorization_check(beam: BeamParams, spectrum: SpectrumModel) -> OracleReport:
    """Factorized P(q_x, k_x) versus direct Cartesian (k_y, k_z) quadrature.

    The direct path integrates the spectral density over a fine Cartesian
    (k_y, k_z) tensor grid, independent of the polar reduction used by
    the marginal.
    """
    kmax = spectrum.kmax
    kx_pts = np.array([0.0, 0.35 * kmax, 0.8 * kmax])
    qx_pts = np.array([-0.5 * beam.dq_perp, 0.0, 1.5 * beam.dq_perp])
    n1d = int(np.clip(12.0 * kmax / spectrum.dk_ph, 256, 4096))
    yn, yw = gauss_legendre_panels(-kmax, kmax, max(16, n1d // 16), 16)
    worst = 0.0
    for kx in kx_pts:
        pts = np.stack(
            [
                np.full((yn.size, yn.size), kx),
                np.broadcast_to(yn[:, None], (yn.size, yn.size)),
                np.broadcast_to(yn[None, :], (yn.size, yn.size)),
            ],
            axis=-1,
        )
        g_direct = float(yw @ eval_gamma_cartesian(spectrum, pts) @ yw)
        g_primary = photon_marginal_kx(spectrum, kx).item()
        for qx in qx_pts:
            direct = float(psi_ini_x_sq(beam.dq_perp, qx + kx)) * g_direct
            primary = float(psi_ini_x_sq(beam.dq_perp, qx + kx)) * g_primary
            if direct > 1e-12:
                worst = max(worst, abs(primary - direct) / direct)
    return OracleReport.compare("momentum_factorization", 0.0, worst, 1e-8, n_1d=yn.size)


# ---------------------------------------------------------------------------
# suite

def run_suite(
    beam: BeamParams,
    spectrum: SpectrumModel,
    quad: QuadratureSpec = PURITY_QUAD,
    seed: int = MC_SEED,
    mc_samples: int = MC_SAMPLES,
) -> list[OracleReport]:
    """All oracles at one parameter point; deterministic for fixed inputs."""
    reports = [
        mc_purity(beam, spectrum, n=mc_samples, seed=seed, quad=quad),
        longitudinal_term_identity(beam, spectrum),
        momentum_factorization_check(beam, spectrum),
    ]

    rng = np.random.default_rng(seed)
    kmax = spectrum.kmax
    pts = np.stack(
        [
            rng.uniform(-kmax, kmax, 100),
            rng.uniform(-kmax, kmax, 100),
            rng.uniform(-kmax, kmax, 100),
        ],
        axis=-1,
    )
    reports.append(fd_gradient_check(spectrum, pts))

    # each grid is dropped once its variance is taken, so no two are held
    reports.append(variance_from_grid(momentum_grid(beam, spectrum), "total_wavevector", beam))
    reports.append(variance_from_grid(joint_position(beam, spectrum), "relative_position", beam, spectrum))

    # Schmidt oracle on the model's own transverse marginal
    kx = np.linspace(-kmax, kmax, N_KX)
    span = 6.0 * beam.dq_perp + kmax
    n_q = int(np.clip(math.ceil(2.0 * span / (beam.dq_perp / 9.0)), 64, 3000))
    qx = np.linspace(-span, span, n_q)
    reports.append(schmidt_purity_1d(beam.dq_perp, lambda k: photon_marginal_kx(spectrum, k), kx, qx))
    return reports
