"""Brute-force validators for the closed-form machinery.

Each oracle recomputes a quantity (Monte Carlo sampling, the Gram-matrix
Schmidt purity, discrete grid moments, finite differences) and reports
the discrepancy against the primary value with an explicit tolerance.
The primary values are the library's, at its own fixed tolerances, and
the suite runs at zero phase.
Most share no code path with the primary implementation. The Schmidt
purity does: it compares the Gram-matrix purity with the overlap double
sum, two sums over the same samples of G, those of the momentum grid, so
it cannot detect a defect in the marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .constants import MC_MIN_SAMPLES, MC_SAMPLES, MC_SEED
from .distributions import N_KX, JointGrid, joint_position, momentum_grid, photon_marginal_kx
from .errors import DomainError, ResolutionError
from .measures import purity_sc, rel_pos_variance_closed, total_wavevector_variance
from .model import (
    BeamParams,
    SpectrumModel,
    eval_f,
    eval_g,
    eval_gamma_cartesian,
    gamma_transverse_gradient,
    psi_ini_x_sq,
)
from .quadrature import GammaSampler, check_budget, gauss_legendre_panels

# central-difference step of `fd_gradient_check`, in units of the scale on
# which Gamma varies at the point, min(dk_ph, |k|): dk_ph radially, |k| in
# angle. The difference's error then scales as _FD_STEP^2 everywhere.
_FD_STEP = 1e-4
# pairs a block of `mc_purity`: the block's eight uniform segments, which
# become its draws and its factors in place, are 1 MiB at any sample count
_MC_BLOCK = 1 << 14
# rows a block of `schmidt_purity_1d`'s sums: q rows of its Gram sum, whose
# amplitude block is 0.5 MiB beside the N_KX^2 Gram matrix and the block's
# own, and k rows of its overlap sum
_SCHMIDT_BLOCK = 128


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

def mc_purity(beam: BeamParams, spectrum: SpectrumModel, n: int = MC_SAMPLES, seed: int = MC_SEED) -> OracleReport:
    """Purity as a sampled expectation over independent photon pairs.

    Draws k, k' i.i.d. from the spectral density and averages the
    double-Gaussian overlap factor; agrees with the quadrature purity
    within 3 standard errors by construction of the estimator. The pairs
    are drawn and reduced in blocks (`_pair_blocks`), so the memory held
    does not grow with n.
    """
    if n < MC_MIN_SAMPLES:
        raise DomainError(f"mc_purity requires at least {MC_MIN_SAMPLES} sample pairs, got {n}")
    # the primary first: a point purity_sc refuses draws no sample
    primary = purity_sc(beam, spectrum)
    count, mean, m2 = 0, 0.0, 0.0
    for (k1, a1, ph1), (k2, a2, ph2) in _pair_blocks(GammaSampler(spectrum), n, seed):
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
        k1 *= beam.alpha
        vals -= k1
        np.exp(vals, out=vals)
        # the block's mean and sum of squared deviations, merged into the
        # running ones by the pairwise update of Chan, Golub & LeVeque
        # (1983), which never forms sum(v^2) - n mean^2
        size = vals.size
        block_mean = float(np.mean(vals))
        vals -= block_mean
        block_m2 = float(np.sum(np.square(vals, out=vals)))
        delta = block_mean - mean
        total = count + size
        mean += delta * size / total
        m2 += block_m2 + delta * delta * count * size / total
        count = total
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return OracleReport.compare(
        "purity_sc_mc", primary, mean, 3.0 * stderr, n=n, seed=seed, stderr=stderr
    )


def _segment_streams(seed: int, n: int, count: int) -> list:
    """Generators at the starts of the first `count` segments of n uniforms
    of `np.random.default_rng(seed)`: segment j is PCG64(seed) advanced by
    j n draws (jump-ahead, O'Neill 2014), one 64-bit draw a uniform."""
    return [np.random.Generator(np.random.PCG64(seed).advance(j * n)) for j in range(count)]


def _pair_blocks(sampler: GammaSampler, n: int, seed: int):
    """n pairs of draws as ((k, cos(theta), phi), (k', cos(theta'), phi'))
    blocks of at most _MC_BLOCK pairs. The first 8n uniforms of
    `np.random.default_rng(seed)` are eight consecutive segments of n:
    segments 0-3 are the four `sampler.from_uniforms` arguments of the
    draws k, and segments 4-7 those of the draws k'. Each block reads its
    slice of all eight (`_segment_streams`); every block reuses one
    (8, _MC_BLOCK) buffer, which the caller may overwrite."""
    streams = _segment_streams(seed, n, 8)
    buf = np.empty((len(streams), min(n, _MC_BLOCK)))
    for start in range(0, n, _MC_BLOCK):
        uniforms = buf[:, : min(_MC_BLOCK, n - start)]
        for stream, row in zip(streams, uniforms):
            stream.random(out=row)
        yield sampler.from_uniforms(*uniforms[:4]), sampler.from_uniforms(*uniforms[4:])


# ---------------------------------------------------------------------------
# 1D Schmidt purity

def schmidt_purity_1d(dq_perp: float, g: np.ndarray, kx: np.ndarray, qx: np.ndarray) -> OracleReport:
    """Schmidt purity of the 1D amplitude psi(q, k) = psi_x(q + k) sqrt(G(k)).

    Compares the singular-value purity sum(s^4)/sum(s^2)^2 against the
    overlap formula int int G(k) G(k') exp(-(k - k')^2 / (4 dq_perp^2)).
    `g` must be the samples on `kx` of a normalized 1D density.
    """
    kx = np.asarray(kx, dtype=float)
    qx = np.asarray(qx, dtype=float)
    if qx.size < 16:
        raise ResolutionError("q grid must have at least 16 points")
    dk = float(kx[1] - kx[0])
    dq = float(qx[1] - qx[0])
    gk = np.asarray(g, dtype=float)
    # resolution contract: >= 8 points per Gaussian width on both axes,
    # which no k axis of 16 points or fewer meets, as sig_g <= (n_k - 1) dk / 2
    if dq > dq_perp / 8.0:
        raise ResolutionError("q grid under-resolves the electron width")
    mk = np.sum(gk * kx) * dk
    sig_g = math.sqrt(np.sum(gk * (kx - mk) ** 2) * dk)
    if sig_g > 0.0 and dk > sig_g / 8.0:
        raise ResolutionError("k grid under-resolves the spectral marginal")

    # the Gram matrix amp^T amp of the amplitude, summed over blocks of q
    # rows, each block built in place on the sum q + k; it needs no
    # quadrature weight sqrt(dq dk), since the purity is scale-free
    root_g = np.sqrt(gk)
    gram = np.zeros((kx.size, kx.size))
    for start in range(0, qx.size, _SCHMIDT_BLOCK):
        amp = qx[start : start + _SCHMIDT_BLOCK, None] + kx
        psi_ini_x_sq(dq_perp, amp, out=amp)
        np.sqrt(amp, out=amp)
        amp *= root_g
        gram += amp.T @ amp
    del amp
    # the singular values s of amp are the square roots of the eigenvalues
    # of amp^T amp, so sum(s^2) is its trace and sum(s^4) its squared
    # Frobenius norm: no SVD is needed
    trace = np.trace(gram)
    schmidt = float(np.sum(np.square(gram, out=gram)) / trace**2)
    del gram

    # G(k) G(k') exp(-(k - k')^2 / (4 dq_perp^2)), summed over blocks of k
    # rows, each built in place
    overlap = 0.0
    for start in range(0, kx.size, _SCHMIDT_BLOCK):
        rows = slice(start, start + _SCHMIDT_BLOCK)
        pairs = np.subtract.outer(kx[rows], kx)
        np.square(pairs, out=pairs)
        np.negative(pairs, out=pairs)
        pairs /= 4.0 * dq_perp**2
        np.exp(pairs, out=pairs)
        pairs *= np.multiply.outer(gk[rows], gk)
        overlap += float(np.sum(pairs))
    overlap *= dk * dk
    return OracleReport.compare(
        "schmidt_purity_1d", overlap, schmidt, 1e-3, n_q=qx.size, n_k=kx.size
    )


# ---------------------------------------------------------------------------
# grid moments

def variance_from_grid(quantity: str, grid: JointGrid, sign: float, reference: float, rel_tol: float) -> OracleReport:
    """The discrete variance of axis1 + sign * axis2 on `grid`, from its
    covariance C as C_11 + 2 sign C_12 + C_22, versus its closed form
    `reference`, within rel_tol of it; reported as `quantity`.

    The sum cancels where the axes are anti-correlated, as q_x and k_x
    are, and rounds by about eps (C_11 + C_22), which grows as
    (kmax / dq_perp)^2: 4.0e-11 of the variance at the momentum grid's
    worst panel point, (0.1, 30), far below rel_tol. The moments are
    divided by the grid's own integral, so it need not be one.
    """
    mean, cov = grid.moments()
    u = np.array([1.0, sign])
    return OracleReport.compare(quantity, reference, float(u @ cov @ u), rel_tol * abs(reference), mean=float(u @ mean))


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient_check(spectrum: SpectrumModel, points: np.ndarray) -> OracleReport:
    """Central differences of the spectral density vs its analytic
    transverse gradient.

    Checks dGamma/dk_x and dGamma/dk_y, every partial the library
    computes, at the given (n, 3) Cartesian points, each with the step
    _FD_STEP min(dk_ph, |k|); reports the maximum error of each relative
    to that partial's largest magnitude over the points, against a
    tolerance of 1e-6.
    """
    pts = np.asarray(points, dtype=float)
    step = _FD_STEP * np.minimum(spectrum.dk_ph, np.linalg.norm(pts, axis=-1))
    _, gx, gy = gamma_transverse_gradient(spectrum, pts)
    worst = 0.0
    for axis, d1 in enumerate((gx, gy)):
        e = np.zeros_like(pts)
        e[:, axis] = step
        fd1 = (eval_gamma_cartesian(spectrum, pts + e) - eval_gamma_cartesian(spectrum, pts - e)) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(fd1 - d1))) / (float(np.max(np.abs(d1))) + 1e-300))
    return OracleReport.compare(
        "gamma_partials_fd", 0.0, worst, 1e-6, n_points=pts.shape[0], max_step=float(np.max(step))
    )


# ---------------------------------------------------------------------------
# closed-form identity for the longitudinal variance term

def longitudinal_term_identity(beam: BeamParams, spectrum: SpectrumModel) -> OracleReport:
    """(1/8) int (c/v)^2 kperp^2 Gamma / (dq_par^2 k^2) d3k = (c/v)^2 / (14 dq_par^2).

    The angular average of kperp^2/k^2 over the emission profile is 4/7;
    verified here by direct spherical quadrature. N_g normalizes k^2 g over
    [0, inf), so the sum over the radial window misses the window's
    Gaussian tails, e^-32 = 1.3e-14 at their edge, and rounds in its
    128-node sums (a few 1e-16). The tails hold 4.9e-14 of the integral at
    dk_ph 30, where the measured discrepancy is 4.9e-14, and at most
    8.2e-14, as k_c / dk_ph -> 0; the tolerance is 1e-12 of the right side.
    """
    kn, kw = gauss_legendre_panels(spectrum.kmin, spectrum.kmax, 8, 16)
    tn, tw = gauss_legendre_panels(0.0, math.pi, 8, 16)
    radial = float(np.sum(kw * kn**2 * eval_g(spectrum, kn)))
    angular = 2.0 * math.pi * float(np.sum(tw * np.sin(tn) ** 3 * eval_f(tn)))
    lhs = 0.5 * beam.alpha * radial * angular
    rhs = 2.0 * beam.alpha / 7.0
    return OracleReport.compare("longitudinal_variance_term", rhs, lhs, 1e-12 * abs(rhs))


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

def run_suite(beam: BeamParams, spectrum: SpectrumModel, seed: int = MC_SEED) -> list[OracleReport]:
    """All oracles at one parameter point, at zero phase; deterministic
    for fixed inputs. `seed` sets the Monte Carlo draw of MC_SAMPLES pairs
    and the finite-difference check's 100 points, which `GammaSampler`
    draws from Gamma itself, so that the check looks where the density
    lives. The position grid, whose kernel check can raise
    ConsistencyError, and the Schmidt q axis, whose budget check can
    refuse, come first, so such a point draws nothing; the reports keep
    the order `validate` prints."""
    # each grid is dropped once its variance is taken, so no two are held
    relative = variance_from_grid(
        "variance_relative_position", joint_position(beam, spectrum)[0], -1.0, rel_pos_variance_closed(beam, spectrum), 0.02
    )
    qx = _schmidt_axes(beam, spectrum)
    k, cos_theta, phi = GammaSampler(spectrum).from_uniforms(*np.random.default_rng(seed).random((4, 100)))
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    fd_points = k[:, None] * np.stack((sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta), axis=-1)
    reports = [
        mc_purity(beam, spectrum, n=MC_SAMPLES, seed=seed),
        longitudinal_term_identity(beam, spectrum),
        momentum_factorization_check(spectrum),
        fd_gradient_check(spectrum, fd_points),
    ]
    # the momentum grid's k axis and G on it are the Schmidt oracle's
    grid, g = momentum_grid(beam, spectrum)
    kx = grid.axis2
    reports.append(variance_from_grid("variance_total_wavevector", grid, 1.0, total_wavevector_variance(beam), 0.005))
    del grid
    return reports + [relative, schmidt_purity_1d(beam.dq_perp, g, kx, qx)]


def _schmidt_axes(beam: BeamParams, spectrum: SpectrumModel) -> np.ndarray:
    """The suite's q_x axis for `schmidt_purity_1d`, whose k_x axis is the
    momentum grid's: 9 q points per electron width where it needs 8. The
    axis spans 2 (6 dq_perp + kmax), so it holds at least 108 points."""
    span = 6.0 * beam.dq_perp + spectrum.kmax
    n_q = math.ceil(2.0 * span / (beam.dq_perp / 9.0))
    # the oracle's amplitude has N_KX doubles a q point; it is summed in
    # blocks, but the budget still bounds its whole size, and so the work
    check_budget("Schmidt oracle q points", n_q, 8 * N_KX)
    return np.linspace(-span, span, n_q)
