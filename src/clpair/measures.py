"""Entanglement diagnostics of the scattered electron-photon state.

Quantities: full subsystem purity, longitudinal electron purity, the
EPR uncertainty product (relative-position times total-wavevector
variance), the phase variance contribution, Schmidt number, the
wave-like / particle-like / classical regime classification, and its
D^2 = 1 and longitudinal P_z = 2/3 boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import EPR_THRESHOLD, PURITY_ABS_TOL, PURITY_REL_TOL, PURITY_THRESHOLD, TWO_PI
from .errors import ConvergenceError, DomainError
from .model import BeamParams, PhaseModel, SpectrumModel, check_admissible, eval_g
from .quadrature import check_budget, gauss_legendre_edges, gauss_legendre_panels, longitudinal_weights

# t-grid of the purity integral: its outer limit, where exp(-b^2 t^2) <
# 1e-21, is t = 7/b, but the sum stops at the first panel edge past which
# the certified tail bound of `_t_cut` is below _TAIL_FRACTION *
# PURITY_ABS_TOL; at least 8 nodes per oscillation period of h(k t);
# t-nodes per block, which bounds the (n_k, block) matrices held at once:
# over a 4 x 3 README plane a call's peak allocation is at most 1.3 MB, 1.4
# while it builds W (4.8 with 1024-node blocks and a form per t-node), so two
# sweep cells in flight hold less than one did.
_T_SPAN = 7.0
_TAIL_FRACTION = 1e-3
_NODES_PER_PERIOD = 8
_T_BLOCK = 256
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
# relative width of the bracket at which `regime_boundaries` stops its
# search for P_z = 2/3: 33 halvings of a 1000x dk_ph range, where Brent's
# search takes 9 to 11 P_z evaluations, the range's ends included
_KNEE_REL_WIDTH = 1e-9


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
    (`_H_TAIL_C`) from there on, and |W_kl| <= sqrt(W_kk W_ll) for the
    positive semidefinite longitudinal weights, |H_t^T W H_t| <= S(t)^2 for
    H_t = phi h_t, where S(t) = sum_k r_k env(k t), r_k >= |phi_k|
    sqrt(W_kk), does not increase in t. The integral
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


def _purity_once(beam, spectrum, radial_panels, refine=1.0):
    """8 pi^2 b^2 phi^T (G o W) phi on one resolution, G = sum_t c_t h_t h_t^T.

    h_t is the polar factor `_sonine_h`(k t) at the nodes k of
    `radial_panels` 16-node panels, phi = k^2 g(k) there, c_t = w_t t
    exp(-b^2 t^2) the t-rule's weight and W the `longitudinal_weights` of
    the panels; o is the entrywise product.

    Weber's second exponential integral (Watson 13.31, DLMF 10.22.67)
    writes the azimuthally reduced transverse kernel
    exp(-(u^2 + u'^2)/4b^2) I0(u u'/2b^2) as
    2b^2 int_0^inf t exp(-b^2 t^2) J0(u t) J0(u' t) dt, which factorizes
    the double integral over the two photon wavevectors at each t.
    Only the t-panels before `_t_cut`'s edge are laid out (a tolerance of
    zero keeps them all), once `check_budget` has passed their nodes.
    """
    kn, kw = gauss_legendre_panels(spectrum.kmin, spectrum.kmax, radial_panels)
    weights = longitudinal_weights(radial_panels, (spectrum.kmax - spectrum.kmin) / radial_panels, beam.alpha)
    b = beam.dq_perp
    t_max = _T_SPAN / b
    # h(k t) oscillates with period 2 pi / k in t
    n_t = refine * _NODES_PER_PERIOD * spectrum.kmax * t_max / TWO_PI
    phi = kn**2 * eval_g(spectrum, kn)
    n_panels = max(2, math.ceil(n_t / 16))
    # sqrt(diag W) alone would cut the 590 um point's t-sum at 10 of 93
    # panels, 1.9e-3 off P_sc though within the absolute target; the Gauss
    # weights w keep the cut where sampling E put it
    r = phi * np.maximum(kw, np.sqrt(np.diagonal(weights)))
    n_keep = _t_cut(kn, r, b, t_max, n_panels, _TAIL_FRACTION * PURITY_ABS_TOL)
    # two doubles a node; the budget is 124x the 33,776 nodes of the finest
    # pass on the README plane, at (0.1, 30). Only kept panels count: at
    # `dq_perp` 1e-7, `dk_ph` 1 the refined pass spans 2.7e9 nodes and keeps
    # 576. Inside the admissible box the span is finite: at most 1.1e171
    # nodes, at u = U_MIN and w = W_MAX.
    check_budget("purity t-nodes", 16 * n_keep, 16)
    # the leading n_keep + 1 edges of the n_panels equal panels, in
    # linspace's arithmetic j * step, without building the others
    tn, tw = gauss_legendre_edges(np.arange(n_keep + 1) * (t_max / n_panels), 16)
    # every c_t is positive: scaled by sqrt(c_t), the blocks of h sum to G
    # as their Gram matrices
    root_ct = np.sqrt(tw * tn * np.exp(-((b * tn) ** 2)))
    gram = np.zeros((kn.size, kn.size))
    for s in range(0, tn.size, _T_BLOCK):
        h = _sonine_h(np.multiply.outer(kn, tn[s : s + _T_BLOCK]))
        h *= root_ct[s : s + _T_BLOCK]
        gram += h @ h.T
    gram *= weights
    return 8.0 * math.pi**2 * b**2 * float(phi @ gram @ phi)


def _checked_purity(what: str, base: float, refined: float) -> float:
    """The refined estimate once it is within max(PURITY_ABS_TOL,
    PURITY_REL_TOL |refined|) of the base one.

    Raises ConvergenceError (carrying both estimates) if the two differ by
    more than that, if the value is not positive, or if it exceeds one by
    more than max(PURITY_ABS_TOL, PURITY_REL_TOL); within that band a
    value above one is clipped to one.
    """
    if abs(refined - base) > max(PURITY_ABS_TOL, PURITY_REL_TOL * abs(refined)):
        raise ConvergenceError(
            f"{what} did not converge (estimates {base:.6e}, {refined:.6e})",
            best_estimate=refined,
            previous_estimate=base,
        )
    if refined <= 0.0 or refined > 1.0 + max(PURITY_ABS_TOL, PURITY_REL_TOL):
        raise ConvergenceError(
            f"{what} produced {refined:.6e}, outside (0, 1]",
            best_estimate=refined,
            previous_estimate=base,
        )
    return min(refined, 1.0)


def purity_sc(beam: BeamParams, spectrum: SpectrumModel) -> float:
    """Subsystem purity of the scattered state, Tr[(Tr_ph rho)^2].

    The 6D double integral over photon wavevectors reduces by azimuthal
    symmetry and Weber's integral to one t-integral of a quadratic form
    in the radial nodes (`_purity_once`); the polar integral is the
    closed-form `_sonine_h`. The t-integral stops where a bound on its
    tail falls below 1e-3 PURITY_ABS_TOL.
    Evaluated on 4 radial panels with the base t-grid and on 6 with a
    1.5x finer one; their difference is the convergence check of
    `_checked_purity`, which also clips a result just above one. A point
    outside the admissible box (`check_admissible`) raises DomainError
    before any grid is sized.
    """
    check_admissible(beam, spectrum)
    base = _purity_once(beam, spectrum, radial_panels=4)
    refined = _purity_once(beam, spectrum, radial_panels=6, refine=1.5)
    return _checked_purity("purity quadrature", base, refined)


def purity_z(beam: BeamParams, spectrum: SpectrumModel) -> float:
    """Purity of the electron's longitudinal degree of freedom.

    Independent of dq_perp and of the phase: phi^T W phi, phi = k^2 g(k)
    and W `purity_sc`'s `longitudinal_weights`, on 4 and on 6 panels as
    the convergence check. phi is formed from u = k - k_c at the nodes
    (k - k_c would keep their 1e-15 rounding, 2e-14 in a narrow P_z).
    """
    def once(radial_panels):
        un, _ = gauss_legendre_panels(spectrum.kmin - spectrum.k_c, spectrum.kmax - spectrum.k_c, radial_panels)
        phi = (spectrum.k_c + un) ** 2 * spectrum.n_g * np.exp(-(0.5 / spectrum.dk_ph**2) * un**2)
        return float(phi @ longitudinal_weights(radial_panels, (spectrum.kmax - spectrum.kmin) / radial_panels, beam.alpha) @ phi)

    return _checked_purity("longitudinal purity", once(4), once(6))


# ---------------------------------------------------------------------------
# EPR uncertainty product

def rel_pos_variance_closed(beam: BeamParams, spectrum: SpectrumModel, phase: PhaseModel = PhaseModel()) -> float:
    """Closed-form variance of x_el - x_ph (um^2) on the model family."""
    kc, dk, ng = spectrum.k_c, spectrum.dk_ph, spectrum.n_g
    z = kc / (math.sqrt(2.0) * dk)
    angular = (
        math.sqrt(TWO_PI) * ng / 56.0 * (19.0 * dk + 2.0 * kc**2 / dk) * (math.erf(z) + 1.0)
        + ng / 14.0 * kc * math.exp(-(z**2))
    )
    longitudinal = 2.0 * beam.alpha / 7.0
    return float(angular + longitudinal + phase.d_eta(spectrum))


def total_wavevector_variance(beam: BeamParams) -> float:
    """Variance of q_x + k_x (um^-2): exactly dq_perp^2, no quadrature.

    The total transverse momentum is conserved, so its variance equals
    that of the initial electron state regardless of spectrum and phase.
    """
    return beam.dq_perp**2


# ---------------------------------------------------------------------------
# classification

def classify_regime(purity: float, d2: float) -> Regime:
    """Map (purity, D^2) to the A/B/C taxonomy, at the paper's thresholds
    PURITY_THRESHOLD and EPR_THRESHOLD.

    The combination (purity above threshold, D^2 below threshold) is not
    part of the taxonomy and is reported explicitly as ANOMALOUS rather
    than silently mapped.
    """
    if not (math.isfinite(purity) and math.isfinite(d2)):
        raise DomainError("regime classification requires finite inputs")
    low_purity = purity < PURITY_THRESHOLD
    epr = d2 < EPR_THRESHOLD
    if low_purity and epr:
        return Regime.A
    if low_purity:
        return Regime.B
    if not epr:
        return Regime.C
    return Regime.ANOMALOUS


def regime_boundaries(beam: BeamParams, k_c: float, dk_values: list[float], phase: PhaseModel = PhaseModel()) -> dict:
    """The D^2 = 1 and P_z = 2/3 boundaries over the dk_ph values `dk_values`.

    Neither D^2 / dq_perp^2 nor P_z depends on dq_perp, so `beam` gives
    only the kinematics and dq_par. D^2 = V dq_perp^2, V =
    `rel_pos_variance_closed` with the phase's D_eta, so at each dk_ph
    D^2 = EPR_THRESHOLD at dq_perp = sqrt(EPR_THRESHOLD / V) exactly
    ("d2"). V is the sweep's `var_rel_pos_um2` column, so this is
    var_rel_pos_um2^(-1/2) at that dk_ph; it is given here as well for a
    dk_ph whose every cell failed. P_z does not increase in dk_ph, so
    P_z = PURITY_THRESHOLD is one root, searched for by `_log_brent` on the
    range of `dk_values` until its bracket [lo, hi], with P_z(lo) >= 2/3 >
    P_z(hi), is narrower than _KNEE_REL_WIDTH relative ("purity_z"). A
    range with no crossing, or a P_z that does not converge, gives that
    entry a `reason` instead.
    """
    d2 = [
        {
            "dk_ph_um_inv": dk,
            "dq_perp_um_inv": math.sqrt(EPR_THRESHOLD / rel_pos_variance_closed(beam, SpectrumModel(k_c, dk), phase)),
        }
        for dk in dk_values
    ]
    knee = {"dq_par_um_inv": beam.dq_par}

    def excess(dk):
        return purity_z(beam, SpectrumModel(k_c, dk)) - PURITY_THRESHOLD

    lo, hi = min(dk_values), max(dk_values)
    try:
        f_lo = excess(lo)
        if f_lo < 0.0:
            knee["reason"] = f"P_z is below 2/3 already at the smallest dk_ph, {lo!r}"
        elif (f_hi := excess(hi)) >= 0.0:
            knee["reason"] = f"P_z is not below 2/3 at the largest dk_ph, {hi!r}"
        else:
            lo, hi = _log_brent(excess, (lo, f_lo), (hi, f_hi), _KNEE_REL_WIDTH)
            knee.update(dk_ph_um_inv=math.sqrt(lo * hi), bracket_um_inv=[lo, hi])
    except ConvergenceError as exc:
        knee["reason"] = str(exc)
    return {"d2": d2, "purity_z": knee}


def _log_brent(f, lo: tuple, hi: tuple, rel_width: float) -> tuple[float, float]:
    """The bracket [v_lo, v_hi] of a sign change of f, with f(v_lo) >= 0 >
    f(v_hi) and v_hi - v_lo <= rel_width v_lo, from the (v, f(v)) ends `lo`
    and `hi` of one: Brent's search (Brent 1973, ch. 4) in x = log v, whose
    every step is inverse quadratic or secant interpolation from the point
    of smaller |f| where that lands toward the other end and less than half
    as far as the step before last, and halves the bracket otherwise. Every
    step moves at least 0.4 log(1 + rel_width), so it stays inside a bracket
    not yet narrow enough and shrinks it."""
    delta = 0.4 * math.log1p(rel_width)
    # cur is the point of smaller |f|, blk the end of opposite sign, pre the
    # point before cur; each a (x, v, f(v)) triple
    pre = (math.log(lo[0]), *lo)
    cur = (math.log(hi[0]), *hi)
    step = prior = 0.0
    while True:
        if (pre[2] >= 0.0) != (cur[2] >= 0.0):
            blk = pre
            step = prior = cur[0] - pre[0]
        v_lo, v_hi = (cur[1], blk[1]) if cur[2] >= 0.0 else (blk[1], cur[1])
        if v_hi - v_lo <= rel_width * v_lo:
            return v_lo, v_hi
        if abs(blk[2]) < abs(cur[2]):
            pre, cur, blk = cur, blk, cur
        (x_pre, _, f_pre), (x_cur, _, f_cur), (x_blk, _, f_blk) = pre, cur, blk
        half = 0.5 * (x_blk - x_cur)
        interpolate = abs(prior) > delta and abs(f_cur) < abs(f_pre)
        if interpolate:
            if x_pre == x_blk:
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            # toward blk (a zero f_cur steps the least), and short
            interpolate = trial * half >= 0.0 and 2.0 * abs(trial) < min(abs(prior), 3.0 * abs(half) - delta)
        if interpolate:
            prior, step = step, trial
        else:
            prior = step = half
        x = x_cur + (step if abs(step) > delta else math.copysign(delta, half))
        v = math.exp(x)
        pre, cur = cur, (x, v, f(v))


def evaluate_point(beam: BeamParams, spectrum: SpectrumModel, phase: PhaseModel = PhaseModel()) -> MeasureResult:
    """All diagnostics at a single parameter point; a failed `purity_sc`
    is reported before a failed `purity_z`.

    P_sc's pair overlap is P_z's times a transverse factor <= 1, so a
    `purity_sc` above `purity_z` (1 + PURITY_REL_TOL) raises
    ConvergenceError, carrying P_sc as its best estimate."""
    p_sc = purity_sc(beam, spectrum)
    p_z = purity_z(beam, spectrum)
    if p_sc > p_z * (1.0 + PURITY_REL_TOL):
        raise ConvergenceError(f"purity_sc {p_sc:.6e} exceeds purity_z {p_z:.6e}", best_estimate=p_sc)
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
        regime=classify_regime(p_sc, d2),
        longitudinal_entangled=p_z < PURITY_THRESHOLD,
    )
