"""Entanglement diagnostics of the scattered electron-photon state.

Quantities: full subsystem purity, longitudinal electron purity, the
EPR uncertainty product (relative-position times total-wavevector
variance), the phase variance contribution, Schmidt number, and the
wave-like / particle-like / classical regime classification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import ConvergenceError, DomainError
from .model import (
    PURITY_QUAD,
    BeamParams,
    PhaseModel,
    QuadratureSpec,
    RegimeThresholds,
    SpectrumModel,
    ZeroPhase,
    eval_g,
    gamma_cartesian_derivatives,
)
from .quadrature import gauss_legendre_panels

# t-grid of the purity integral: its outer limit, where exp(-b^2 t^2) <
# 1e-21, is t = 7/b, but the sum stops at the first panel edge past which
# the certified tail bound of `_t_cut` is below _TAIL_FRACTION * abs_tol;
# at least 8 nodes per oscillation period of h(k t); t-nodes per block,
# which bounds the (n_k, block) matrices held at once (a 96 x 1024 block
# keeps one call's peak allocation near 6 MB).
_T_SPAN = 7.0
_TAIL_FRACTION = 1e-3
_NODES_PER_PERIOD = 8
_T_BLOCK = 1024
# below this argument _sonine_h sums ten terms of its Taylor series,
# (-x^2/2)^k / k! * (2k + 2) / (2k + 5)!!, which are within 3e-16 of h(0)
# there; above it the elementary form's cancellation costs under 3e-15 h(0)
_H_SMALL_X = 1.5
_H_SERIES = tuple(
    (-0.5) ** k / math.factorial(k) * (2 * k + 2) / math.prod(range(1, 2 * k + 6, 2)) for k in range(10)
)
# envelope of the polar factor: |h(x)| <= h(0) = 1/2pi everywhere (|J0| <= 1
# and f >= 0), and |h(x)| <= _H_TAIL_C / x^2 for x >= _H_TAIL_X. The
# elementary bracket is a sin x + b cos x with a^2 + b^2 =
# x^-4 - 2x^-6 + 9x^-8 + 81x^-10, which is at most x^-4 exactly when
# 2x^4 - 9x^2 - 81 >= 0, i.e. x >= 3; _H_TAIL_C = 15/4pi is sharp, the
# limit of x^2 |h(x)|. Below 3 the bound c/x^2 is not proven, so h(0) is
# used; c/9 < h(0), so the piecewise envelope never increases.
_H0 = 1.0 / TWO_PI
_H_TAIL_X = 3.0
_H_TAIL_C = 15.0 / (4.0 * math.pi)


class Regime(enum.Enum):
    A = "A"  # wave-like: entangled by purity and by the EPR product
    B = "B"  # particle-like: entangled by purity only
    C = "C"  # classical: neither measure detects entanglement
    ANOMALOUS = "anomalous"  # purity above threshold yet D^2 < 1; not in the taxonomy


@dataclass(frozen=True)
class MeasureResult:
    purity_sc: float
    purity_z: float
    var_rel_pos: float
    var_tot_wavevector: float
    d2: float
    schmidt_number: float
    regime: Regime
    longitudinal_entangled: bool


# ---------------------------------------------------------------------------
# purity

def _radial_nodes(spectrum: SpectrumModel, n_rad: int):
    return gauss_legendre_panels(spectrum.kmin, spectrum.kmax, max(1, n_rad // 16), 16)


def _sonine_h(x) -> np.ndarray:
    """Polar factor h(x) = int_0^pi f(alpha) sin(alpha) J0(x sin(alpha)) d alpha.

    Sonine's first finite integral (Watson 12.11) gives both hemispheres
    in closed form, (15/4pi)(j1(x)/x - 3 j2(x)/x^2), with h(0) = 1/2pi;
    with the elementary j1 and j2 (DLMF 10.49.3) the bracket is
    4 sin x/x^3 - cos x/x^2 - 9 sin x/x^5 + 9 cos x/x^4. That form cancels
    as 1/x^4 for small x, so below _H_SMALL_X the Taylor series
    `_H_SERIES` in x^2 replaces it.
    """
    x = np.asarray(x, dtype=float)
    small = x < _H_SMALL_X
    xs = np.where(small, _H_SMALL_X, x)
    # inv^2 ((4 inv - 9 inv^2 inv) sin + (9 inv^2 - 1) cos), operation for
    # operation, in four buffers; the explicit outputs keep a 0-d input an
    # array for the masked assignment
    out = np.divide(1.0, xs, out=np.empty_like(xs))
    inv2 = np.multiply(out, out, out=np.empty_like(xs))
    tmp = np.multiply(inv2, 9.0, out=np.empty_like(xs))
    tmp *= out
    out *= 4.0
    out -= tmp
    out *= np.sin(xs, out=tmp)
    np.multiply(inv2, 9.0, out=tmp)
    tmp -= 1.0
    tmp *= np.cos(xs, out=xs)
    out += tmp
    out *= inv2
    if np.any(small):
        x2 = x[small] ** 2
        series = np.zeros_like(x2)
        for c in reversed(_H_SERIES):
            series = series * x2 + c
        out[small] = series
    out *= 15.0 / (4.0 * math.pi)
    return out


def _t_cut(kn, r, b, t_max, n_panels, target):
    """Number of t-panels after which the purity integral's tail is below target.

    With |h(x)| <= env(x), env = h(0) below _H_TAIL_X and c/x^2
    (`_H_TAIL_C`) from there on, and every entry of the longitudinal
    kernel at most one, |H_t^T E H_t| <= S(t)^2, where
    S(t) = sum_k r_k env(k t) does not increase in t. The integral
    beyond T is then at most 4 pi^2 S(T)^2 exp(-b^2 T^2), which decreases
    in T, so the first panel edge where it is below target is found by
    bisection, one n_k-vector per probe. Returns n_panels (the outer
    limit) when no earlier edge qualifies, as for a target of zero.
    """
    def tail(p):
        t = t_max * p / n_panels
        x = kn * t
        s = r @ np.where(x >= _H_TAIL_X, _H_TAIL_C / x**2, _H0)
        return 4.0 * math.pi**2 * s * s * math.exp(-((b * t) ** 2))

    lo, hi = 1, n_panels
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _purity_once(beam, spectrum, quad, n_rad, refine=1.0):
    """8 pi^2 b^2 sum_t w_t t exp(-b^2 t^2) H_t^T E H_t on one resolution.

    Weber's second exponential integral (Watson 13.31, DLMF 10.22.67)
    writes the azimuthally reduced transverse kernel
    exp(-(u^2 + u'^2)/4b^2) I0(u u'/2b^2) as
    2b^2 int_0^inf t exp(-b^2 t^2) J0(u t) J0(u' t) dt, which factorizes
    the double integral over the two photon wavevectors at each t.
    The t-grid spans [0, 7/b]; the sum stops at the first panel edge past
    which the tail bound of `_t_cut` is below _TAIL_FRACTION * abs_tol
    (an abs_tol of zero keeps the whole grid).
    """
    kn, kw = _radial_nodes(spectrum, n_rad)
    b = beam.dq_perp
    t_max = _T_SPAN / b
    # h(k t) oscillates with period 2 pi / k in t
    n_t = refine * _NODES_PER_PERIOD * spectrum.kmax * t_max / TWO_PI
    n_panels = max(2, math.ceil(n_t / 16))
    r = kw * kn**2 * eval_g(spectrum, kn)
    n_keep = 16 * _t_cut(kn, r, b, t_max, n_panels, _TAIL_FRACTION * quad.abs_tol)
    tn, tw = gauss_legendre_panels(0.0, t_max, n_panels, 16)
    tn, tw = tn[:n_keep], tw[:n_keep]
    ct = tw * tn * np.exp(-((b * tn) ** 2))
    elong = np.exp(-beam.c_over_vz**2 * (kn[:, None] - kn[None, :]) ** 2 / (4.0 * beam.dq_par**2))
    total = 0.0
    for s in range(0, tn.size, _T_BLOCK):
        h = _sonine_h(np.multiply.outer(kn, tn[s : s + _T_BLOCK]))
        h *= r[:, None]
        total += float(ct[s : s + _T_BLOCK] @ np.einsum("it,it->t", h, elong @ h))
    return 8.0 * math.pi**2 * b**2 * total


def _checked_purity(what: str, base: float, refined: float, quad: QuadratureSpec) -> float:
    """The refined estimate once it agrees with the base one.

    Raises ConvergenceError (carrying both estimates) if the two differ by
    more than the tolerance, if the value is not positive, or if it
    exceeds one by more than max(abs_tol, rel_tol); within that band a
    value above one is clipped to one.
    """
    if abs(refined - base) > max(quad.abs_tol, quad.rel_tol * abs(refined)):
        raise ConvergenceError(
            f"{what} did not converge (estimates {base:.6e}, {refined:.6e})",
            best_estimate=refined,
            previous_estimate=base,
        )
    if refined <= 0.0 or refined > 1.0 + max(quad.abs_tol, quad.rel_tol):
        raise ConvergenceError(
            f"{what} produced {refined:.6e}, outside (0, 1]",
            best_estimate=refined,
            previous_estimate=base,
        )
    return min(refined, 1.0)


def purity_sc(beam: BeamParams, spectrum: SpectrumModel, quad: QuadratureSpec = PURITY_QUAD) -> float:
    """Subsystem purity of the scattered state, Tr[(Tr_ph rho)^2].

    The 6D double integral over photon wavevectors reduces by azimuthal
    symmetry and Weber's integral to one t-integral of a quadratic form
    in the radial nodes (`_purity_once`); the polar integral is the
    closed-form `_sonine_h`. The t-integral stops where a bound on its
    tail falls below 1e-3 abs_tol.
    Evaluated at n_rad 64 with the base t-grid and at n_rad 96 with a
    1.5x finer one; their difference is the convergence check. A result
    above one within max(abs_tol, rel_tol) is clipped to one.
    """
    base = _purity_once(beam, spectrum, quad, n_rad=64)
    refined = _purity_once(beam, spectrum, quad, n_rad=96, refine=1.5)
    return _checked_purity("purity quadrature", base, refined, quad)


def purity_z(beam: BeamParams, spectrum: SpectrumModel, quad: QuadratureSpec = PURITY_QUAD) -> float:
    """Purity of the electron's longitudinal degree of freedom.

    Independent of dq_perp and of the phase: a 2D radial integral of the
    marginal |k| density against the longitudinal Gaussian kernel.
    """
    # resolve the kernel: its width dq_par * v_z / c can be much narrower
    # than the radial support for wide spectra
    n_base = int(np.clip(4.0 * (spectrum.kmax - spectrum.kmin) * beam.c_over_vz / beam.dq_par, 96, 4096))
    values = []
    for n_rad in (n_base, math.ceil(5 * n_base / 3)):
        kn, kw = _radial_nodes(spectrum, n_rad)
        # radial probability density of |k|
        dens = kn**2 * eval_g(spectrum, kn) * kw
        elong = np.exp(
            -beam.c_over_vz**2 * (kn[:, None] - kn[None, :]) ** 2 / (4.0 * beam.dq_par**2)
        )
        values.append(float(dens @ elong @ dens))
    return _checked_purity("longitudinal purity", *values, quad)


# ---------------------------------------------------------------------------
# EPR uncertainty product

def rel_pos_variance_closed(beam: BeamParams, spectrum: SpectrumModel, phase: PhaseModel = ZeroPhase()) -> float:
    """Closed-form variance of x_el - x_ph (um^2) on the model family."""
    kc, dk, ng = spectrum.k_c, spectrum.dk_ph, spectrum.n_g
    z = kc / (math.sqrt(2.0) * dk)
    angular = (
        math.sqrt(TWO_PI) * ng / 56.0 * (19.0 * dk + 2.0 * kc**2 / dk) * (math.erf(z) + 1.0)
        + ng / 14.0 * kc * math.exp(-(z**2))
    )
    longitudinal = beam.c_over_vz**2 / (14.0 * beam.dq_par**2)
    return float(angular + longitudinal + phase.d_eta(spectrum))


def rel_pos_variance_quadrature(
    beam: BeamParams,
    spectrum: SpectrumModel,
    phase: PhaseModel = ZeroPhase(),
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Relative-position variance by direct quadrature of the 3D integrand.

    Spherical coordinates with the azimuth integrated analytically; uses
    the analytic Cartesian partials of the spectral density plus the
    transverse phase-gradient term for non-trivial phases.
    """
    def value(n_rad, n_theta):
        kn, kw = _radial_nodes(spectrum, n_rad)
        tn, tw = gauss_legendre_panels(0.0, math.pi, max(2, n_theta // 16), 16)
        kk = kn[:, None]
        tt = tn[None, :]
        kperp = kk * np.sin(tt)
        pts = np.stack(
            [np.broadcast_to(kperp, kperp.shape), np.zeros_like(kperp), kk * np.cos(tt)],
            axis=-1,
        )
        gam, gx, gy, gxx, gyy = gamma_cartesian_derivatives(spectrum, pts)
        grad_ratio = np.where(gam > 0.0, (gx**2 + gy**2) / np.where(gam > 0.0, gam, 1.0), 0.0)
        core = (
            grad_ratio
            - 2.0 * (gxx + gyy)
            + beam.c_over_vz**2 * kperp**2 * gam / (beam.dq_par**2 * kk**2)
        ) / 8.0
        core = core + 0.5 * gam * phase.gradient_sq(spectrum, kk, tt)
        meas = kw[:, None] * tw[None, :] * kk**2 * np.sin(tt)
        return TWO_PI * float(np.sum(meas * core))

    base = value(96, 96)
    refined = value(144, 144)
    if abs(refined - base) > max(quad.abs_tol, quad.rel_tol * abs(refined)):
        raise ConvergenceError(
            f"variance quadrature did not converge (estimates {base:.9e}, {refined:.9e})",
            best_estimate=refined,
            previous_estimate=base,
        )
    return refined


def total_wavevector_variance(beam: BeamParams) -> float:
    """Variance of q_x + k_x (um^-2): exactly dq_perp^2, no quadrature.

    The total transverse momentum is conserved, so its variance equals
    that of the initial electron state regardless of spectrum and phase.
    """
    return beam.dq_perp**2


# ---------------------------------------------------------------------------
# classification

def classify_regime(purity: float, d2: float, thresholds: RegimeThresholds = RegimeThresholds()) -> Regime:
    """Map (purity, D^2) to the A/B/C taxonomy.

    The combination (purity above threshold, D^2 below threshold) is not
    part of the taxonomy and is reported explicitly as ANOMALOUS rather
    than silently mapped.
    """
    if not (math.isfinite(purity) and math.isfinite(d2)):
        raise DomainError("regime classification requires finite inputs")
    low_purity = purity < thresholds.purity_threshold
    epr = d2 < thresholds.epr_threshold
    if low_purity and epr:
        return Regime.A
    if low_purity:
        return Regime.B
    if not epr:
        return Regime.C
    return Regime.ANOMALOUS


def evaluate_point(
    beam: BeamParams,
    spectrum: SpectrumModel,
    phase: PhaseModel = ZeroPhase(),
    thresholds: RegimeThresholds = RegimeThresholds(),
    quad: QuadratureSpec = PURITY_QUAD,
) -> MeasureResult:
    """All diagnostics at a single parameter point."""
    p_sc = purity_sc(beam, spectrum, quad)
    return _point_result(beam, spectrum, phase, thresholds, p_sc, purity_z(beam, spectrum, quad))


def _point_result(
    beam: BeamParams,
    spectrum: SpectrumModel,
    phase: PhaseModel,
    thresholds: RegimeThresholds,
    p_sc: float,
    p_z: float,
) -> MeasureResult:
    """The diagnostics at a point, given its two purities."""
    var_x = rel_pos_variance_closed(beam, spectrum, phase)
    var_q = total_wavevector_variance(beam)
    d2 = var_x * var_q
    return MeasureResult(
        purity_sc=p_sc,
        purity_z=p_z,
        var_rel_pos=var_x,
        var_tot_wavevector=var_q,
        d2=d2,
        schmidt_number=1.0 / p_sc,
        regime=classify_regime(p_sc, d2, thresholds),
        longitudinal_entangled=p_z < thresholds.purity_threshold,
    )
