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
from typing import Callable

import numpy as np

from .constants import MAX_ARRAY_BYTES, MC_MIN_SAMPLES, MC_SAMPLES, MC_SEED, NORMALIZATION_TOL
from .distributions import N_KX, JointGrid, joint_position, momentum_grid, photon_marginal_kx
from .errors import DomainError, ResolutionError
from .measures import purity_sc, rel_pos_variance_closed, total_wavevector_variance
from .model import (
    PURITY_QUAD,
    BeamParams,
    QuadratureSpec,
    SpectrumModel,
    eval_f,
    eval_g,
    eval_gamma_cartesian,
    gamma_transverse_gradient,
    psi_ini_x_sq,
)
from .quadrature import GammaSampler, gauss_legendre_panels


# the most q points the suite's Schmidt oracle takes: its amplitude, n_q x
# N_KX doubles, then fills MAX_ARRAY_BYTES
_SCHMIDT_MAX_Q = MAX_ARRAY_BYTES // (8 * N_KX)
# central-difference step of `fd_gradient_check`, in units of dk_ph: the
# difference's error scales as (step / dk_ph)^2 at every spectral width
_FD_STEP = 1e-4


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
    k1, a1, ph1 = sampler.sample_k_cos_phi(n, rng)
    k2, a2, ph2 = sampler.sample_k_cos_phi(n, rng)
    # in place on the draws: |k| is the drawn k, and with a = k sin(theta)
    # = k sqrt(1 - cos^2(theta)) the transverse distance is
    # (a1 - a2)^2 + 4 a1 a2 sin^2((phi1 - phi2)/2), the law of cosines in
    # the form that does not cancel for close pairs
    for a, k in ((a1, k1), (a2, k2)):
        np.square(a, out=a)
        np.subtract(1.0, a, out=a)
        np.sqrt(a, out=a)
        a *= k
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
    quantity: str,
    grid: JointGrid,
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reference: float,
    rel_tol: float,
) -> OracleReport:
    """The discrete variance of combine(axis1, axis2) on `grid` versus its
    closed form `reference`, within rel_tol of it; reported as `quantity`.

    A grid whose integral is not within NORMALIZATION_TOL of one, or is
    nan, raises DomainError.
    """
    total = grid.integral()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise DomainError(f"grid is not normalized (integral {total:.4f})")
    mean, var = grid.moments(combine)
    return OracleReport.compare(quantity, reference, var, rel_tol * abs(reference), mean=mean)


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient_check(spectrum: SpectrumModel, points: np.ndarray) -> OracleReport:
    """Central differences of the spectral density vs its analytic
    transverse gradient.

    Checks dGamma/dk_x and dGamma/dk_y, every partial the library
    computes, at the given Cartesian points, with the step _FD_STEP dk_ph;
    reports the maximum error of each relative to that partial's largest
    magnitude over the points, against a tolerance of 1e-6.
    """
    step = _FD_STEP * spectrum.dk_ph
    pts = np.asarray(points, dtype=float)
    _, gx, gy = gamma_transverse_gradient(spectrum, pts)
    worst = 0.0
    for axis, d1 in enumerate((gx, gy)):
        e = np.zeros(3)
        e[axis] = step
        fd1 = (eval_gamma_cartesian(spectrum, pts + e) - eval_gamma_cartesian(spectrum, pts - e)) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(fd1 - d1))) / (float(np.max(np.abs(d1))) + 1e-300))
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
    radial = float(np.sum(kw * kn**2 * eval_g(spectrum, kn)))
    angular = 2.0 * math.pi * float(np.sum(tw * np.sin(tn) ** 3 * eval_f(tn)))
    lhs = beam.c_over_vz**2 / (8.0 * beam.dq_par**2) * radial * angular
    rhs = beam.c_over_vz**2 / (14.0 * beam.dq_par**2)
    return OracleReport.compare("longitudinal_variance_term", rhs, lhs, 1e-6 * abs(rhs))


# ---------------------------------------------------------------------------
# factorized momentum density vs direct marginalization

def momentum_factorization_check(spectrum: SpectrumModel) -> OracleReport:
    """The photon marginal G(k_x) versus direct quadrature of Gamma.

    psi(q_x + k_x) cancels from the factorized P(q_x, k_x), so G is
    compared alone, at k_x = 0, 0.35 kmax and 0.8 kmax. The direct side
    sums Cartesian Gamma over the marginal's own domain, the (k_y, k_z)
    annulus sqrt(max(kmin^2 - k_x^2, 0)) <= rho <= sqrt(kmax^2 - k_x^2),
    on 16-node rho panels no wider than dk_ph (at least 8) and 4 x 16
    beta nodes on [0, 2 pi]; the marginal integrates beta in closed form.
    """
    kmin, kmax = spectrum.kmin, spectrum.kmax
    kx_pts = np.array([0.0, 0.35 * kmax, 0.8 * kmax])
    bn, bw = gauss_legendre_panels(0.0, 2.0 * math.pi, 4, 16)
    worst = 0.0
    n_rho = 0
    for kx in kx_pts:
        lo, hi = math.sqrt(max(kmin**2 - kx**2, 0.0)), math.sqrt(kmax**2 - kx**2)
        rn, rw = gauss_legendre_panels(lo, hi, max(8, math.ceil((hi - lo) / spectrum.dk_ph)), 16)
        pts = np.stack(
            [
                np.full((rn.size, bn.size), kx),
                rn[:, None] * np.cos(bn)[None, :],
                rn[:, None] * np.sin(bn)[None, :],
            ],
            axis=-1,
        )
        direct = float((rw * rn) @ eval_gamma_cartesian(spectrum, pts) @ bw)
        primary = photon_marginal_kx(spectrum, kx).item()
        worst = max(worst, abs(primary - direct) / direct)
        n_rho = max(n_rho, rn.size)
    return OracleReport.compare("momentum_factorization", 0.0, worst, 1e-8, n_rho=n_rho, n_beta=bn.size)


# ---------------------------------------------------------------------------
# suite

def run_suite(
    beam: BeamParams,
    spectrum: SpectrumModel,
    quad: QuadratureSpec = PURITY_QUAD,
    seed: int = MC_SEED,
    mc_samples: int = MC_SAMPLES,
) -> list[OracleReport]:
    """All oracles at one parameter point; deterministic for fixed inputs.
    `seed` sets the Monte Carlo draw and the finite-difference check's 100
    points, uniform in [-kmax, kmax]^3."""
    kmax = spectrum.kmax
    var_q, var_x = total_wavevector_variance(beam), rel_pos_variance_closed(beam, spectrum)
    # in this order, which `validate` prints; each grid is dropped once its
    # variance is taken, so no two are held
    return [
        mc_purity(beam, spectrum, n=mc_samples, seed=seed, quad=quad),
        longitudinal_term_identity(beam, spectrum),
        momentum_factorization_check(spectrum),
        fd_gradient_check(spectrum, np.random.default_rng(seed).uniform(-kmax, kmax, (3, 100)).T),
        variance_from_grid("variance_total_wavevector", momentum_grid(beam, spectrum), np.add, var_q, 0.005),
        variance_from_grid("variance_relative_position", joint_position(beam, spectrum)[0], np.subtract, var_x, 0.02),
        # on the model's own transverse marginal
        schmidt_purity_1d(beam.dq_perp, lambda k: photon_marginal_kx(spectrum, k), *_schmidt_axes(beam, spectrum)),
    ]


def _schmidt_axes(beam: BeamParams, spectrum: SpectrumModel) -> tuple[np.ndarray, np.ndarray]:
    """The suite's k_x and q_x axes for `schmidt_purity_1d`: N_KX points over
    the spectrum, and 9 q points per electron width where it needs 8. The
    q axis spans 2 (6 dq_perp + kmax), so it holds at least 108 points."""
    kmax = spectrum.kmax
    span = 6.0 * beam.dq_perp + kmax
    n_q = math.ceil(2.0 * span / (beam.dq_perp / 9.0))
    if n_q > _SCHMIDT_MAX_Q:
        raise ResolutionError(f"the Schmidt oracle needs {n_q} q points, more than its cap of {_SCHMIDT_MAX_Q}")
    return np.linspace(-kmax, kmax, N_KX), np.linspace(-span, span, n_q)
