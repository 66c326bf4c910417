import inspect
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0

from clpair import (
    BeamParams,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    PhaseModel,
    ResolutionError,
    SpectrumModel,
)
from clpair.measures import (
    _H_SERIES,
    _H_SMALL_X,
    _H_TAIL_C,
    _H_TAIL_X,
    _checked_purity,
    _purity_once,
    _sonine_h,
    Regime,
    classify_regime,
    evaluate_point,
    purity_sc,
    purity_z,
    regime_boundaries,
    rel_pos_variance_closed,
    total_wavevector_variance,
)
from clpair.constants import ENERGY_KEV_MAX, K_C_MAX, K_C_MIN, PURITY_ABS_TOL, PURITY_REL_TOL, PURITY_THRESHOLD, W_MAX, W_MIN
from clpair.model import check_admissible, derive_kinematics, eval_f
from clpair.quadrature import gauss_legendre_panels

from conftest import DQ_PAR, K_C, K_KEV
from reference_purity import einsum_purity_once
from reference_variance import rel_pos_variance_quadrature

# Regression anchors for the reference scenario, each cross-validated
# against the 4x10^5-sample Monte Carlo oracle during development.
PURITY_ANCHORS = [
    (60.0, 0.3, 0.983649),
    (30.0, 1.0, 0.911353),
    (3.0, 0.3, 0.158434),
    (1.0, 1.0, 0.023484),
    (0.3, 3.0, 0.001364),
]

# purity_sc on the (dq_perp, dk_ph) panel {0.1, 1, 10, 100} x {0.1, 1, 30}
# plus the README point (3, 0.3), as the former Bessel-kernel quadrature
# gave them
PANEL_REFERENCE = [
    (0.1, 0.1, 0.00029518119761437164),
    (0.1, 1.0, 0.0002551185375333166),
    (0.1, 30.0, 3.4039067195524472e-06),
    (1.0, 0.1, 0.026179541146301923),
    (1.0, 1.0, 0.023489752169231715),
    (1.0, 30.0, 0.0003361427325433028),
    (10.0, 0.1, 0.6727274123103455),
    (10.0, 1.0, 0.6391315268852065),
    (10.0, 30.0, 0.021332500540646407),
    (100.0, 0.1, 0.9950624476975216),
    (100.0, 1.0, 0.9545051854816619),
    (100.0, 30.0, 0.14256514823827843),
    (3.0, 0.3, 0.15843415015592632),
]


class TestCheckedPurity:
    """The refined estimate passes when it lies within max(PURITY_ABS_TOL,
    PURITY_REL_TOL |refined|) of the base one. fl(1e-4) = 2 fl(5e-5), so
    1e-4 - 5e-5 is exactly PURITY_ABS_TOL, and one ulp lower is one ulp
    beyond it."""

    @pytest.mark.parametrize(
        "base,refined,passed",
        [
            (1e-4, 5e-5, True),
            (1e-4, math.nextafter(5e-5, 0.0), False),
            (0.75, 0.75 - 2.0**-14, True),
            (0.75, 0.75 - 2.0**-13, False),
        ],
        ids=["at_abs_tol", "beyond_abs_tol", "within_rel_tol", "beyond_rel_tol"],
    )
    def test_bound(self, base, refined, passed):
        if passed:
            assert _checked_purity("q", base, refined) == refined
        else:
            with pytest.raises(ConvergenceError, match=r"q did not converge \(estimates") as err:
                _checked_purity("q", base, refined)
            assert (err.value.previous_estimate, err.value.best_estimate) == (base, refined)

    def test_purity_tolerances_are_the_library_constants(self):
        # the P_sc / P_z verdict reads these two numbers and nothing else
        import clpair.measures as measures

        assert (measures.PURITY_REL_TOL, measures.PURITY_ABS_TOL) == (1e-4, 5e-5)
        for fn in (purity_sc, purity_z, evaluate_point, regime_boundaries, _purity_once):
            assert "quad" not in inspect.signature(fn).parameters, fn.__name__

class TestPuritySc:
    @pytest.mark.parametrize("dq_perp,dk,expected", PURITY_ANCHORS)
    def test_frozen_anchors(self, dq_perp, dk, expected, make_beam, make_spectrum):
        p = purity_sc(make_beam(dq_perp), make_spectrum(dk))
        assert p == pytest.approx(expected, rel=2e-3, abs=2e-5)

    def test_separable_limit(self, make_spectrum):
        # both kernels flat across the spectrum -> purity -> 1
        beam = BeamParams(200.0, 2.0e4, 2.0e4)
        assert purity_sc(beam, make_spectrum(0.3)) == pytest.approx(1.0, abs=2e-3)

    def test_monotone_in_dq_perp(self, make_beam, make_spectrum):
        s = make_spectrum(0.3)
        values = [purity_sc(make_beam(d), s) for d in (0.5, 2.0, 8.0, 32.0)]
        assert values == sorted(values)

    @pytest.mark.parametrize("dk", [0.1, 1.0, 10.0])
    def test_does_not_decrease_in_dq_perp(self, dk, make_beam, make_spectrum):
        # every factor of the integrand is non-negative and non-decreasing in
        # dq_perp, so P_sc is too, up to the quadrature's own tolerance; a
        # root search for P_sc = 2/3 along a row relies on this
        s = make_spectrum(dk)
        values = [purity_sc(make_beam(float(d)), s) for d in np.logspace(-1.0, 2.0, 7)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - max(PURITY_ABS_TOL, PURITY_REL_TOL * lo), values

    def test_bounded(self, make_beam, make_spectrum):
        p = purity_sc(make_beam(5.0), make_spectrum(2.0))
        assert 0.0 < p <= 1.0

    def test_unattainable_tolerance_raises(self, make_beam, make_spectrum, monkeypatch):
        import clpair.measures as measures

        monkeypatch.setattr(measures, "PURITY_REL_TOL", 1e-18)
        monkeypatch.setattr(measures, "PURITY_ABS_TOL", 0.0)
        with pytest.raises(ConvergenceError) as err:
            purity_sc(make_beam(1.0), make_spectrum(1.0))
        assert err.value.best_estimate is not None

    @pytest.mark.parametrize("excess,clipped", [(0.5 * PURITY_REL_TOL, True), (2.0 * PURITY_REL_TOL, False)])
    def test_value_above_one(self, excess, clipped, make_beam, make_spectrum, monkeypatch):
        import clpair.measures as measures

        monkeypatch.setattr(measures, "_purity_once", lambda *args, **kw: 1.0 + excess)
        if clipped:
            assert purity_sc(make_beam(1.0), make_spectrum(1.0)) == 1.0
        else:
            with pytest.raises(ConvergenceError) as err:
                purity_sc(make_beam(1.0), make_spectrum(1.0))
            assert err.value.best_estimate == 1.0 + excess

    def test_peak_allocation_bounded(self, make_beam, make_spectrum):
        # the t-blocks bound one call's temporaries, which set a sweep's peak RSS
        import tracemalloc

        beam, spectrum = make_beam(0.1), make_spectrum(1.73)
        tracemalloc.start()
        try:
            purity_sc(beam, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("cap,refused", [(47, True), (48, False)])
    def test_t_grid_cap_names_the_size(self, make_beam, make_spectrum, monkeypatch, cap, refused):
        # at (3, 0.3) the refined pass keeps and lays out 48 of its 80
        # t-nodes (the base pass 32 of 48); below a budget of that many
        # t-nodes, 16 bytes each, purity_sc refuses the grid
        import clpair.quadrature as quadrature

        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", 16 * cap)
        if refused:
            with pytest.raises(ResolutionError, match="^48 purity t-nodes at 16 bytes each exceed"):
                purity_sc(make_beam(3.0), make_spectrum(0.3))
        else:
            assert 0.0 < purity_sc(make_beam(3.0), make_spectrum(0.3)) <= 1.0

    def test_fine_grid_under_the_cap_is_computed(self, make_beam, make_spectrum):
        # the refined pass at (1e-4, 1) spans 2.75e6 t-nodes, which the
        # tail cut trims to 576: a cheap point, not one to refuse. The
        # value is the one computed before the cap existed, when the whole
        # span was laid out, less the 1 ulp by which the 256-node t-blocks
        # of the Gram-form t-sum move it (it was 2.5536443492252956e-10).
        assert repr(purity_sc(make_beam(1e-4), make_spectrum(1.0))) == "2.553644349225295e-10"

    def test_span_beyond_the_cap_is_computed_on_its_kept_nodes(self, make_beam, make_spectrum):
        # at (1e-7, 1) the refined pass spans 2.7e9 t-nodes, 20 GiB as
        # arrays, and keeps 576; P_sc goes as dq_perp^2 for a beam this
        # much narrower than the spectrum, so it is 1e-6 times (1e-4, 1)'s
        beam, spectrum = make_beam(1e-7), make_spectrum(1.0)
        tracemalloc.start()
        try:
            value = purity_sc(beam, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1e-6 * purity_sc(make_beam(1e-4), spectrum), rel=1e-7)
        assert peak < 4e6

    # at 1e-7 the base pass keeps 384 nodes, above a budget of 383 t-nodes
    @pytest.mark.parametrize("dq_perp,cap,nodes", [(1e-7, 383, "384")])
    def test_too_fine_t_grid_is_refused_before_it_is_built(self, make_beam, make_spectrum, monkeypatch, dq_perp, cap, nodes):
        import clpair.quadrature as quadrature

        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", 16 * cap)
        beam, spectrum = make_beam(dq_perp), make_spectrum(1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match=f"^{nodes} purity t-nodes at 16 bytes each"):
                purity_sc(beam, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the refused base pass builds no t-node; 384 of them would take 6 kB
        assert peak < 1e6

    def test_point_outside_the_box_is_refused_before_any_grid(self, make_beam, make_spectrum):
        # at dq_perp 1e-320 the t-span 7/dq_perp overflows to inf; u =
        # dq_perp / k_c is far below U_MIN, and purity_sc says so first
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"u = dq_perp / k_c = 7\.95e-322 is outside the admissible box, past its edge 1e-123"):
                purity_sc(make_beam(1e-320), make_spectrum(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5


def t_edges(monkeypatch, beam, spectrum):
    """The t-panel edges that `purity_sc`'s base and refined passes lay out."""
    import clpair.measures as measures

    seen, exact = [], measures.gauss_legendre_edges
    monkeypatch.setattr(measures, "gauss_legendre_edges", lambda edges, order: seen.append(edges) or exact(edges, order))
    purity_sc(beam, spectrum)
    return seen


class TestPurityTGrid:
    """`_purity_once` lays out the leading panels that its tail cut keeps,
    on the edges np.linspace(0, 7/b, n_panels + 1) gives, bit for bit."""

    # at (3, 0.3) the base pass keeps 2 of 3 panels and the refined pass 3
    # of 5; an absolute tolerance of zero keeps them all
    @pytest.mark.parametrize("abs_tol,kept", [(PURITY_ABS_TOL, (2, 3)), (0.0, (3, 5))])
    def test_kept_panels_are_the_leading_ones(self, make_beam, make_spectrum, monkeypatch, abs_tol, kept):
        import clpair.measures as measures

        monkeypatch.setattr(measures, "PURITY_ABS_TOL", abs_tol)
        t_max = 7.0 / 3.0
        for edges, n_keep, n_panels in zip(t_edges(monkeypatch, make_beam(3.0), make_spectrum(0.3)), kept, (3, 5)):
            exact = min(n_keep + 1, n_panels)
            assert edges.size == n_keep + 1
            assert np.array_equal(edges[:exact], np.linspace(0.0, t_max, n_panels + 1)[:exact])
            if n_keep == n_panels:
                # n_panels * (t_max / n_panels), where linspace sets t_max
                assert abs(edges[-1] - t_max) <= np.spacing(t_max)

    def test_kept_panels_of_a_long_span(self, make_beam, make_spectrum, monkeypatch):
        # at (1e-7, 1) the refined pass spans 1.7e8 panels (2.7e9 nodes) and
        # keeps 36 (576 nodes), on linspace's own edges j * (t_max / n_panels)
        # without the others; 8 nodes per period of h(k t) set n_panels
        t_max = 7.0 / 1e-7
        _, refined = t_edges(monkeypatch, make_beam(1e-7), make_spectrum(1.0))
        n_panels = math.ceil(1.5 * 8.0 * make_spectrum(1.0).kmax * t_max / (2.0 * math.pi) / 16.0)
        assert n_panels > 10**8 and refined.size == 37
        assert refined.tolist() == [j * (t_max / n_panels) for j in range(37)]


class TestPurityScPanel:
    """The ROADMAP's 12-point panel plus the README point, pinned to the
    values of the former Bessel-kernel quadrature (alpha and u paths)."""

    @pytest.mark.parametrize("dq_perp,dk,expected", PANEL_REFERENCE)
    def test_matches_frozen_panel(self, dq_perp, dk, expected, make_beam, make_spectrum):
        p = purity_sc(make_beam(dq_perp), make_spectrum(dk))
        assert abs(p - expected) <= max(PURITY_ABS_TOL, PURITY_REL_TOL * expected)


# converged P_sc at the panel points for L_par 0.13, 1.3 and 13 um, keyed by
# (L_par um, dq_perp, dk_ph): `_purity_once` on 48 radial panels with a t-grid
# twice as fine as the base one and no tail cut (PURITY_ABS_TOL 0).
# Cross-checked against the pointwise w w^T o E on radial rules that resolve
# the longitudinal Gaussian, doubled from 48 panels until two agree to 1e-7:
# within 6.6e-6 relative at (13, 0.1, 30), 4.7e-7 at the other two dk_ph 30,
# dq_perp 0.1 cells and 6e-15 elsewhere.
CONVERGED_P_SC = {
    (0.13, 0.1, 0.1): 0.00029530986837835365,
    (0.13, 0.1, 1.0): 0.0002644582379564661,
    (0.13, 0.1, 30.0): 9.55204841911138e-06,
    (0.13, 1.0, 0.1): 0.026190647207001115,
    (0.13, 1.0, 1.0): 0.024386174426821113,
    (0.13, 1.0, 30.0): 0.0009533531183050934,
    (0.13, 10.0, 0.1): 0.6730221537188233,
    (0.13, 10.0, 1.0): 0.6661158184310427,
    (0.13, 10.0, 30.0): 0.08302827707506631,
    (0.13, 100.0, 0.1): 0.9954984270232708,
    (0.13, 100.0, 1.0): 0.9949280354847732,
    (0.13, 100.0, 30.0): 0.7702806921762864,
    (0.13, 3.0, 0.3): 0.15905508490548162,
    (1.3, 0.1, 0.1): 0.00029518105061806133,
    (1.3, 0.1, 1.0): 0.00025511866772864926,
    (1.3, 0.1, 30.0): 3.397410980371889e-06,
    (1.3, 1.0, 0.1): 0.02617919223546013,
    (1.3, 1.0, 1.0): 0.023489038599509716,
    (1.3, 1.0, 30.0): 0.00033610921854182257,
    (1.3, 10.0, 0.1): 0.6727274123102988,
    (1.3, 10.0, 1.0): 0.6391315268852064,
    (1.3, 10.0, 30.0): 0.02133170482962303,
    (1.3, 100.0, 0.1): 0.995062447697512,
    (1.3, 100.0, 1.0): 0.95450518548166,
    (1.3, 100.0, 30.0): 0.14256514823445668,
    (1.3, 3.0, 0.3): 0.15843415015592646,
    (13.0, 0.1, 0.1): 0.0002830931304148285,
    (13.0, 0.1, 1.0): 9.180294180646624e-05,
    (13.0, 0.1, 30.0): 3.929339042055438e-07,
    (13.0, 1.0, 0.1): 0.025104447712920704,
    (13.0, 1.0, 1.0): 0.008216001276352958,
    (13.0, 1.0, 30.0): 3.821789364422639e-05,
    (13.0, 10.0, 0.1): 0.6450759697422797,
    (13.0, 10.0, 1.0): 0.21377873371562028,
    (13.0, 10.0, 30.0): 0.0022026894479469194,
    (13.0, 100.0, 0.1): 0.9541607152969016,
    (13.0, 100.0, 1.0): 0.31885842835605427,
    (13.0, 100.0, 30.0): 0.014434484271522694,
    (13.0, 3.0, 0.3): 0.11877628914662106,
}
# the 590 um point (2.69 keV, k_c 49.3, dk_ph 19.7, dq_perp 1.24), the same
# way; the delta-limit sqrt(pi/alpha) 8 pi^2 b^2 int phi^2 G(k, k) dk of its
# alpha -> infinity asymptote gives 1.29172353e-7, 1.2e-8 above it
LONG_COHERENCE_POINT = (BeamParams(2.69, 1.24, 2.0 * math.pi / 590.0), SpectrumModel(49.3, 19.7))
LONG_COHERENCE_P_SC = 1.291723517323256e-07
# cells where 6 radial panels do not resolve G's oscillation over a wide
# window at small dq_perp, with the relative error measured there
G_LIMITED = {(1.3, 0.1, 30.0): 1.9e-3, (13.0, 0.1, 30.0): 1.1e-3, (0.13, 0.1, 30.0): 6.0e-4, (1.3, 1.0, 30.0): 1.6e-4}


def assert_within_rel_tol(value, expected):
    assert abs(value - expected) <= PURITY_REL_TOL * expected, (value, expected)


class TestPurityScConverged:
    """P_sc within PURITY_REL_TOL of converged values. The convergence
    check's PURITY_ABS_TOL decides wherever P_sc < 0.5, so it passes a
    tenfold error at (0.1, 30), where P_sc is 3.4e-6; this pin does not."""

    @pytest.mark.parametrize(
        "key",
        [
            pytest.param(
                key,
                marks=pytest.mark.xfail(
                    raises=AssertionError,
                    strict=True,
                    reason=f"G-limited, {G_LIMITED[key]:+.1e}: radial panel doubling (ROADMAP item 12)",
                ),
            )
            if key in G_LIMITED
            else key
            for key in CONVERGED_P_SC
        ],
        ids=lambda key: "-".join(map(str, key)),
    )
    def test_matches_converged_value(self, key, make_beam, make_spectrum):
        l_par, dq_perp, dk = key
        assert_within_rel_tol(purity_sc(make_beam(dq_perp, 2.0 * math.pi / l_par), make_spectrum(dk)), CONVERGED_P_SC[key])

    def test_long_coherence_point(self):
        assert_within_rel_tol(purity_sc(*LONG_COHERENCE_POINT), LONG_COHERENCE_P_SC)

    def test_planted_defect_is_caught(self, make_beam, make_spectrum):
        # 1 + 2 PURITY_REL_TOL times P_sc at (0.1, 1), L_par 1.3 um, where
        # P_sc is 2.6e-4 and the absolute tolerance is 20% of it
        p = purity_sc(make_beam(0.1), make_spectrum(1.0))
        with pytest.raises(AssertionError):
            assert_within_rel_tol((1.0 + 2.0 * PURITY_REL_TOL) * p, CONVERGED_P_SC[(1.3, 0.1, 1.0)])


class TestPurityGramForm:
    """`_purity_once`'s Gram-matrix t-sum against the per-node quadratic
    forms of `reference_purity`, on both passes at the 12-point panel.
    The worst difference measured is 3 ulps, at (100, 0.1)'s refined pass;
    the bound leaves room for another BLAS kernel's summation order."""

    @pytest.mark.parametrize("radial_panels,refine", [(4, 1.0), (6, 1.5)], ids=["base", "refined"])
    @pytest.mark.parametrize("dq_perp,dk", [(dq, dk) for dq, dk, _ in PANEL_REFERENCE[:12]])
    def test_matches_the_einsum_sum(self, dq_perp, dk, radial_panels, refine, make_beam, make_spectrum):
        beam, spectrum = make_beam(dq_perp), make_spectrum(dk)
        expected = einsum_purity_once(beam, spectrum, radial_panels, refine)
        assert abs(_purity_once(beam, spectrum, radial_panels, refine) - expected) <= 8 * np.spacing(expected)


class TestSonineH:
    @staticmethod
    def _numeric(x):
        # both hemispheres of f(alpha) sin(alpha) J0(x sin(alpha))
        an, aw = gauss_legendre_panels(0.0, math.pi, 64, 16)
        return float(np.sum(aw * eval_f(an) * np.sin(an) * j0(x * np.sin(an))))

    @pytest.mark.parametrize(
        "x",
        [0.0, 1e-4, np.nextafter(_H_SMALL_X, 0.0), _H_SMALL_X, 0.5, 3.0, 40.0],
        ids=["0", "1e-4", "below_cutoff", "cutoff", "0.5", "3", "40"],
    )
    def test_matches_alpha_quadrature(self, x):
        assert float(_sonine_h(x)) == pytest.approx(self._numeric(x), rel=1e-11, abs=1e-15)

    @staticmethod
    def _grid():
        # dense over [0, 1e4], with the series cut-off and the tail edge
        return np.unique(
            np.concatenate(
                [np.linspace(0.0, 50.0, 200_001), np.geomspace(50.0, 1e4, 100_001),
                 [_H_SMALL_X, np.nextafter(_H_TAIL_X, 0.0), _H_TAIL_X]]
            )
        )

    @classmethod
    def _envelope_excess(cls, c):
        # largest |h(x)| - env(x) on the dense grid, with env = h(0) below
        # _H_TAIL_X and c/x^2 from there on
        x = cls._grid()
        with np.errstate(divide="ignore"):
            envelope = np.where(x >= _H_TAIL_X, c / x**2, 1.0 / (2.0 * math.pi))
        return float(np.max(np.abs(_sonine_h(x)) - envelope))

    def test_envelope(self):
        assert self._envelope_excess(_H_TAIL_C) <= 0.0

    @staticmethod
    def _expression(x):
        # the out-of-place form that the in-place _sonine_h replaced
        x = np.asarray(x, dtype=float)
        small = x < _H_SMALL_X
        xs = np.where(small, _H_SMALL_X, x)
        inv = 1.0 / xs
        inv2 = inv * inv
        out = np.asarray(inv2 * ((4.0 * inv - 9.0 * inv2 * inv) * np.sin(xs) + (9.0 * inv2 - 1.0) * np.cos(xs)))
        if np.any(small):
            x2 = x[small] ** 2
            series = np.zeros_like(x2)
            for c in reversed(_H_SERIES):
                series = series * x2 + c
            out[small] = series
        return (15.0 / (4.0 * math.pi)) * out

    def test_in_place_matches_expression(self):
        x = self._grid()
        assert np.max(np.abs(_sonine_h(x) - self._expression(x))) <= 1e-15 / (2.0 * math.pi)
        assert float(_sonine_h(2.0)) == float(self._expression(2.0))

    def test_envelope_planted_defect(self):
        # 15/4pi is the limit of x^2 |h(x)| as x grows, so 0.99 _H_TAIL_C
        # must fail; this also keeps _H_TAIL_C within 1% of that sharp value
        assert self._envelope_excess(0.99 * _H_TAIL_C) > 0.0


class TestPurityTailCut:
    """The t-sum stops where a bound on the integral's tail is below
    1e-3 PURITY_ABS_TOL; a tolerance of zero keeps the whole 7/b grid."""

    RESOLUTIONS = [(4, 1.0), (6, 1.5)]  # purity_sc's base and refined passes, in radial panels

    @staticmethod
    def _uncut(monkeypatch, beam, spectrum, radial_panels, refine):
        import clpair.measures as measures

        with monkeypatch.context() as m:
            m.setattr(measures, "PURITY_ABS_TOL", 0.0)
            return _purity_once(beam, spectrum, radial_panels, refine)

    def _cut_error(self, monkeypatch, beam, spectrum, radial_panels, refine):
        cut = _purity_once(beam, spectrum, radial_panels, refine)
        return abs(cut - self._uncut(monkeypatch, beam, spectrum, radial_panels, refine))

    @pytest.mark.parametrize("radial_panels,refine", RESOLUTIONS)
    @pytest.mark.parametrize("dq_perp,dk,expected", PANEL_REFERENCE)
    def test_cut_within_fraction_of_abs_tol(
        self, dq_perp, dk, expected, radial_panels, refine, make_beam, make_spectrum, monkeypatch
    ):
        err = self._cut_error(monkeypatch, make_beam(dq_perp), make_spectrum(dk), radial_panels, refine)
        assert err <= 1e-3 * PURITY_ABS_TOL

    def test_planted_defect_in_envelope(self, make_beam, make_spectrum, monkeypatch):
        import clpair.measures as measures

        monkeypatch.setattr(measures, "_H_TAIL_C", _H_TAIL_C / 100.0)
        worst = max(
            self._cut_error(monkeypatch, make_beam(dq_perp), make_spectrum(dk), radial_panels, refine)
            for dq_perp, dk, _ in PANEL_REFERENCE
            for radial_panels, refine in self.RESOLUTIONS
        )
        assert worst > 1e-3 * PURITY_ABS_TOL

    def test_refined_pass_evaluates_under_a_quarter_of_the_grid(self, make_beam, make_spectrum, monkeypatch):
        # a count of the t-columns passed to _sonine_h, not a timing
        import clpair.measures as measures

        columns = []

        def counting(x):
            columns.append(np.shape(x)[1])
            return _sonine_h(x)

        monkeypatch.setattr(measures, "_sonine_h", counting)
        beam, spectrum = make_beam(0.1), make_spectrum(30.0)
        self._uncut(monkeypatch, beam, spectrum, 6, 1.5)
        assert sum(columns) == 33_776
        columns.clear()
        _purity_once(beam, spectrum, 6, 1.5)
        assert sum(columns) <= 0.25 * 33_776


class TestPurityZ:
    def test_high_purity_below_knee(self, make_beam, make_spectrum):
        # probe at a tenth of the kernel scale dq_par * v_z / c; see the
        # decisions ledger on the relativistic factor in this criterion
        beam = make_beam(1.0)
        dk = 0.1 * DQ_PAR / beam.c_over_vz
        assert purity_z(beam, make_spectrum(dk)) > 0.99

    def test_independent_of_dq_perp(self, make_beam, make_spectrum):
        s = make_spectrum(1.0)
        a = purity_z(make_beam(1.0), s)
        b = purity_z(make_beam(100.0), s)
        assert a == b

    def test_wide_longitudinal_limit(self, make_spectrum):
        beam = BeamParams(200.0, 1.0, 5.0e4)
        assert purity_z(beam, make_spectrum(0.5)) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_decreasing_in_dk(self, make_beam, make_spectrum):
        b = make_beam(1.0)
        values = [purity_z(b, make_spectrum(dk)) for dk in np.logspace(-1, 1.3, 8)]
        assert all(x > y for x, y in zip(values, values[1:]))


# (L_par um, dk_ph um^-1): kmin > 0 at the first and last, kmin = 0 at the
# three whose spectrum reaches below k = 0 within 8 dk_ph
PURITY_Z_POINTS = [(1.3, 1.0), (1.3, 30.0), (13.0, 30.0), (0.13, 1528.0), (13.0, 0.3)]


# P_z at (L_par um, dk_ph um^-1), frozen from nested mpmath.quad at 40
# digits over the spectrum's window [kmin, kmax]: the outer integral with a
# breakpoint at k_c, the inner one with breakpoints at k_c and the outer k,
# on the same beam and spectrum floats and the exact normalization N_g.
# The closed inner integral, also at 40 digits, agrees to 30 digits.
PURITY_Z_MPMATH = {
    (13.0, 0.018): "0.998568654516872338099458863402",
    (13.0, 0.05): "0.989112633637433823583429928532",
    (1.3, 1.0): "0.958950792511066480209790857404",
    (0.13, 30.0): "0.841647302895874164917925604932",
}


def _purity_z_beam(l_par: float) -> BeamParams:
    return BeamParams(200.0, 1.0, 2.0 * math.pi / l_par)


def _purity_z_nested_quad(l_par: float, dk: float) -> float:
    """P_z by scipy's nested adaptive quad, on the scalar densities."""
    beam, s = _purity_z_beam(l_par), SpectrumModel(K_C, dk)
    a = beam.c_over_vz**2 / (4.0 * beam.dq_par**2)

    def dens(k):
        return k * k * s.n_g * math.exp(-((k - s.k_c) ** 2) / (2.0 * dk**2))

    def inner(k):
        def f(kp):
            return dens(kp) * math.exp(-a * (k - kp) ** 2)

        return quad(f, s.kmin, s.kmax, points=[k, s.k_c], epsabs=0.0, epsrel=1e-13, limit=200)[0]

    return quad(lambda k: dens(k) * inner(k), s.kmin, s.kmax, points=[s.k_c], epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.fixture(scope="module")
def purity_z_reference():
    return {point: _purity_z_nested_quad(*point) for point in PURITY_Z_POINTS}


def _weights_mutant(*edits):
    """`longitudinal_weights` with each (old, new) edit made once in its source."""
    import clpair.quadrature as quadrature

    source = textwrap.dedent(inspect.getsource(quadrature.longitudinal_weights))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(quadrature))
    exec(compile(source, "weights_mutant", "exec"), namespace)
    return namespace["longitudinal_weights"]


class TestPurityZReference:
    """phi^T W phi against scipy's nested quad and mpmath."""

    def test_kmin_cases_covered(self):
        kmins = [SpectrumModel(K_C, dk).kmin for _, dk in PURITY_Z_POINTS]
        assert 0.0 in kmins and any(k > 0.0 for k in kmins)

    @pytest.mark.parametrize("point", PURITY_Z_POINTS, ids=[f"{l}-{dk}" for l, dk in PURITY_Z_POINTS])
    def test_matches_nested_quad(self, point, purity_z_reference):
        value = purity_z(_purity_z_beam(point[0]), SpectrumModel(K_C, point[1]))
        assert abs(value - purity_z_reference[point]) <= 1e-13

    @pytest.mark.parametrize("point", list(PURITY_Z_MPMATH), ids=[f"{l}-{dk}" for l, dk in PURITY_Z_MPMATH])
    def test_matches_mpmath(self, point):
        # narrow spectra amplify the rounding of k - k_c at nodes near k_c
        value = purity_z(_purity_z_beam(point[0]), SpectrumModel(K_C, point[1]))
        assert abs(value - float(PURITY_Z_MPMATH[point])) <= 1e-15

    @pytest.mark.parametrize(
        "edits",
        [
            # s < 0 not split off: block -d's half added untransposed, as if
            # C(-s) were C(s); 7.6e-5 off at least
            [("r[at].transpose(0, 1, 3, 2)", "r[at]")],
            # the Gaussian cut where it falls below e^-4, not e^-42: 1.6e-5
            # off at least, except at (1.3, 1), where both reaches span the window
            [("math.sqrt(42.0 / g)", "math.sqrt(4.0 / g)")],
        ],
        ids=["no-split-at-0", "reach-e-4"],
    )
    def test_planted_defects_are_caught(self, edits, purity_z_reference, monkeypatch):
        import clpair.measures as measures

        monkeypatch.setattr(measures, "longitudinal_weights", _weights_mutant(*edits))
        errors = []
        for l_par, dk in PURITY_Z_POINTS:
            try:
                value = purity_z(_purity_z_beam(l_par), SpectrumModel(K_C, dk))
            except ConvergenceError as exc:
                value = exc.best_estimate
            errors.append(abs(value - purity_z_reference[(l_par, dk)]))
        assert max(errors) > 1e-13

    def test_peak_allocation_under_1_mb(self):
        beam, spectrum = _purity_z_beam(13.0), SpectrumModel(K_C, 30.0)
        purity_z(beam, spectrum)  # the cached rules and longitudinal weights are not counted
        tracemalloc.start()
        try:
            purity_z(beam, spectrum)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# P_z = 2/3 on the README spectrum at L_par 0.13, 1.3 and 13 um, bisected
# to 1e-9 relative in dk_ph on dq_par * [10^-1.5, 10^1.5]; Brent's search
# finds them within 5e-10
PURITY_Z_KNEES = {0.13: 53.88787952538428, 1.3: 4.078740505078521, 13.0: 0.37606323757188337}


def _knee_range(beam: BeamParams) -> list[float]:
    return [beam.dq_par * 10**-1.5, beam.dq_par * 10**1.5]


class TestRegimeBoundaries:
    @pytest.mark.parametrize("l_par", list(PURITY_Z_KNEES))
    def test_purity_z_decreases_in_dk(self, l_par):
        # the knee's search relies on P_z not increasing in dk_ph, as a
        # P_sc root along a row relies on
        # TestPuritySc::test_does_not_decrease_in_dq_perp; on these grids it
        # strictly decreases
        beam = _purity_z_beam(l_par)
        lo, hi = _knee_range(beam)
        values = [purity_z(beam, SpectrumModel(K_C, float(dk))) for dk in np.geomspace(lo, hi, 301)]
        for a, b in zip(values, values[1:]):
            assert b < a, values

    @pytest.mark.parametrize("l_par,knee", list(PURITY_Z_KNEES.items()))
    def test_purity_z_knee(self, l_par, knee):
        beam = _purity_z_beam(l_par)
        found = regime_boundaries(beam, K_C, _knee_range(beam))["purity_z"]
        assert found["dq_par_um_inv"] == beam.dq_par
        assert found["dk_ph_um_inv"] == pytest.approx(knee, rel=1e-6)
        lo, hi = found["bracket_um_inv"]
        assert lo <= found["dk_ph_um_inv"] <= hi and hi - lo <= 1e-9 * lo
        assert purity_z(beam, SpectrumModel(K_C, lo)) >= PURITY_THRESHOLD > purity_z(beam, SpectrumModel(K_C, hi))

    @pytest.mark.parametrize("l_par", list(PURITY_Z_KNEES))
    def test_purity_z_knee_takes_few_evaluations(self, l_par, monkeypatch):
        # Brent's search takes 10 or 11 purity_z calls, the range's two ends
        # included, where bisection in log dk_ph took 35
        import clpair.measures as measures

        calls = []
        exact = measures.purity_z
        monkeypatch.setattr(measures, "purity_z", lambda beam, spectrum: calls.append(spectrum.dk_ph) or exact(beam, spectrum))
        beam = _purity_z_beam(l_par)
        assert "dk_ph_um_inv" in regime_boundaries(beam, K_C, _knee_range(beam))["purity_z"]
        assert len(calls) <= 12

    @pytest.mark.parametrize(
        "dks,reason",
        [([0.1, 1.0], "not below 2/3 at the largest dk_ph, 1.0"), ([10.0, 30.0], "below 2/3 already at the smallest dk_ph, 10.0")],
        ids=["above", "below"],
    )
    def test_no_crossing_gives_reason(self, dks, reason, make_beam):
        found = regime_boundaries(make_beam(1.0), K_C, dks)["purity_z"]
        assert found == {"dq_par_um_inv": DQ_PAR, "reason": f"P_z is {reason}"}

    def test_unconverged_purity_z_gives_reason(self, make_beam, monkeypatch):
        import clpair.measures as measures

        def fails(beam, spectrum):
            raise ConvergenceError("longitudinal purity did not converge")

        monkeypatch.setattr(measures, "purity_z", fails)
        found = regime_boundaries(make_beam(1.0), K_C, [1.0, 10.0])["purity_z"]
        assert found == {"dq_par_um_inv": DQ_PAR, "reason": "longitudinal purity did not converge"}


class TestRelPosVariance:
    @pytest.mark.parametrize("dq_perp,dk", [(dq, dk) for dq, dk, _ in PANEL_REFERENCE[:12]])
    @pytest.mark.parametrize(
        "phase",
        [PhaseModel(), PhaseModel("polar_linear", 3.0 / 14.0), PhaseModel("radial_kc", 3.0), PhaseModel("radial_dk", 0.4)],
        ids=["zero", "polar", "radial_kc", "radial_dk"],
    )
    def test_closed_matches_quadrature(self, phase, dq_perp, dk, make_beam, make_spectrum):
        # the quadrature sums only the gradient term |grad_perp Gamma|^2 /
        # Gamma of the integrand; the closed form holds the whole variance,
        # so this pins the dropped -2 laplacian_perp(Gamma) term's integral
        # below 1e-12 of V (4.2e-13 at worst, measured)
        b, s = make_beam(dq_perp), make_spectrum(dk)
        assert rel_pos_variance_quadrature(b, s, phase) == pytest.approx(
            rel_pos_variance_closed(b, s, phase), rel=1e-12
        )

    def test_inverse_square_scaling_small_dk(self, make_beam, make_spectrum):
        # dominated by the 1/dk^2 term when dk << k_c and dk << dq_par
        b = make_beam(1.0)
        r = rel_pos_variance_closed(b, make_spectrum(0.02)) / rel_pos_variance_closed(
            b, make_spectrum(0.04)
        )
        assert r == pytest.approx(4.0, rel=0.1)

    def test_longitudinal_term_dominates_large_dk(self, make_beam, make_spectrum):
        b, s = make_beam(1.0), make_spectrum(30.0)
        z = s.k_c / (math.sqrt(2.0) * s.dk_ph)
        angular = (
            math.sqrt(2.0 * math.pi) * s.n_g / 56.0 * (19.0 * s.dk_ph + 2.0 * s.k_c**2 / s.dk_ph) * (math.erf(z) + 1.0)
            + s.n_g / 14.0 * s.k_c * math.exp(-(z**2))
        )
        rest = rel_pos_variance_closed(b, s) - angular
        assert rest == pytest.approx(b.c_over_vz**2 / (14.0 * b.dq_par**2), rel=1e-12)

    @pytest.mark.parametrize("k_c", [K_C_MIN, K_C_MAX], ids=["k_c-min", "k_c-max"])
    @pytest.mark.parametrize("w", [W_MIN, W_MAX], ids=["w-min", "w-max"])
    def test_gamma_is_positive_at_every_node_at_the_box_corners(self, monkeypatch, k_c, w):
        # the reference's gradient ratio divides by Gamma at each node
        # unguarded: at the box's corners in k_c and w, Gamma is positive at
        # all of them and no division or product leaves the finite doubles
        import reference_variance

        smallest, exact = [], reference_variance.gamma_transverse_gradient

        def recorded(spectrum, pts):
            gam, gx, gy = exact(spectrum, pts)
            smallest.append(float(gam.min()))
            return gam, gx, gy

        monkeypatch.setattr(reference_variance, "gamma_transverse_gradient", recorded)
        # the top energy's q0, 5e76, admits u = 1 and l = 0.01 at k_c = K_C_MAX
        beam, spectrum = BeamParams(ENERGY_KEV_MAX, k_c, 0.01 * k_c), SpectrumModel(k_c, w * k_c)
        check_admissible(beam, spectrum)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            try:
                value = rel_pos_variance_quadrature(beam, spectrum)
            except ConvergenceError as exc:
                # at w = W_MIN the radial window is a few doubles wide
                value = exc.best_estimate
        assert len(smallest) == 2 and min(smallest) > 0.0
        assert 0.0 < value < math.inf


class TestTotalWavevectorVariance:
    def test_square(self, make_beam):
        assert total_wavevector_variance(make_beam(0.314)) == pytest.approx(0.0986, rel=1e-3)

    def test_spectrum_independent(self, make_beam, make_spectrum):
        # D^2 is the relative-position variance times dq_perp^2 whatever the spectrum
        b = make_beam(2.0)
        for dk in (0.5, 5.0):
            r = evaluate_point(b, make_spectrum(dk))
            assert r.var_tot_wavevector == b.dq_perp**2
            assert r.d2 == r.var_rel_pos * b.dq_perp**2


class TestEntanglementWitness:
    def test_epr_transition_in_transverse_coherence(self, make_spectrum):
        s = make_spectrum(3.0)
        b_small = BeamParams(200.0, 2.0 * math.pi / 0.5, DQ_PAR)
        b_large = BeamParams(200.0, 2.0 * math.pi / 5.0, DQ_PAR)
        assert evaluate_point(b_large, s).d2 < 1.0 < evaluate_point(b_small, s).d2


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "p,d2,expected",
        [
            (0.1, 0.5, Regime.A),
            (0.1, 5.0, Regime.B),
            (0.9, 5.0, Regime.C),
            (0.9, 0.5, Regime.ANOMALOUS),
        ],
    )
    def test_quadrants(self, p, d2, expected):
        assert classify_regime(p, d2) == expected

    def test_thresholds_are_the_papers(self):
        # a purity below 2/3 and a D^2 below 1 count; at the value itself, not
        below_p, below_d2 = math.nextafter(2.0 / 3.0, 0.0), math.nextafter(1.0, 0.0)
        assert classify_regime(below_p, below_d2) == Regime.A
        assert classify_regime(below_p, 1.0) == Regime.B
        assert classify_regime(2.0 / 3.0, 1.0) == Regime.C
        assert classify_regime(2.0 / 3.0, below_d2) == Regime.ANOMALOUS

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            classify_regime(math.nan, 1.0)


class TestDEta:
    def test_zero(self, make_spectrum):
        assert PhaseModel().d_eta(make_spectrum(0.5)) == 0.0

    def test_radial_kc_value(self):
        s = SpectrumModel(12.566, 0.3)
        assert PhaseModel("radial_kc", 100.0).d_eta(s) == pytest.approx(200.0 / (7.0 * 12.566**2), rel=1e-10)
        assert PhaseModel("radial_kc", 100.0).d_eta(s) == pytest.approx(0.1809, rel=1e-3)


class TestEvaluatePoint:
    def test_fig2_spot_regimes(self, make_beam, make_spectrum):
        assert evaluate_point(make_beam(0.3), make_spectrum(3.0)).regime == Regime.A
        assert evaluate_point(make_beam(3.0), make_spectrum(0.3)).regime == Regime.B
        assert evaluate_point(make_beam(60.0), make_spectrum(0.3)).regime == Regime.C

    def test_consistency_of_fields(self, make_beam, make_spectrum):
        r = evaluate_point(make_beam(2.0), make_spectrum(0.5))
        assert r.d2 == pytest.approx(r.var_rel_pos * r.var_tot_wavevector, rel=1e-12)
        assert r.schmidt_number == pytest.approx(1.0 / r.purity_sc, rel=1e-12)
        assert r.longitudinal_entangled == (r.purity_z < 2.0 / 3.0)

    @given(
        dq_perp=st.floats(min_value=0.3, max_value=30.0),
        dk=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_points_valid(self, dq_perp, dk):
        from conftest import K_KEV

        r = evaluate_point(
            BeamParams(K_KEV, dq_perp, DQ_PAR), SpectrumModel(K_C, dk)
        )
        assert 0.0 < r.purity_sc <= 1.0
        assert 0.0 < r.purity_z <= 1.0
        assert r.var_rel_pos > 0.0
        assert r.regime in (Regime.A, Regime.B, Regime.C, Regime.ANOMALOUS)

    def test_long_coherence_point_is_below_purity_z(self):
        # at L_par 590 um the longitudinal Gaussian is far narrower than the
        # radial nodes: sampled at them it gave purity_sc 8.76e-5 against P_z
        # 6.16e-5, which the guard refused; integrated against the panels'
        # interpolants it gives the delta-limit's 1.2917235e-7
        r = evaluate_point(*LONG_COHERENCE_POINT)
        assert r.purity_sc == pytest.approx(1.2917235e-7, rel=PURITY_REL_TOL, abs=0.0)
        assert r.purity_sc < r.purity_z

    @pytest.mark.parametrize(
        "factor,refused", [(1.01, True), (1.0 + 2.0 * PURITY_REL_TOL, True), (1.0 + PURITY_REL_TOL / 2.0, False)]
    )
    def test_catches_purity_sc_above_purity_z(self, make_beam, make_spectrum, monkeypatch, factor, refused):
        # a planted defect: purity_sc returns factor * P_z at the README
        # point; above P_z (1 + PURITY_REL_TOL) it is refused
        import clpair.measures as measures

        monkeypatch.setattr(measures, "purity_sc", lambda beam, spectrum: factor * purity_z(beam, spectrum))
        b, s = make_beam(3.0), make_spectrum(0.3)
        if refused:
            with pytest.raises(ConvergenceError, match="exceeds purity_z"):
                evaluate_point(b, s)
        else:
            assert evaluate_point(b, s).purity_sc == factor * purity_z(b, s)

    # the benchmark's session points s0, s1 and s2, the README point and
    # the panel's narrowest-spectrum corner
    @pytest.mark.parametrize("dq_perp,dk", [(0.3, 1.0), (10.0, 2.0), (1.0, 10.0), (3.0, 0.3), (100.0, 0.1)])
    @pytest.mark.parametrize("scale", [0.1, 10.0, 1000.0])
    def test_depends_only_on_wavenumber_ratios(self, make_beam, make_spectrum, dq_perp, dk, scale):
        # every diagnostic is a function of ratios of wavenumbers, so
        # scaling k_c, dk_ph, dq_perp and dq_par together moves none of
        # them beyond rounding (2.8e-14 at worst, at (100, 0.1)); a rule
        # with a hidden absolute scale fails here
        r = evaluate_point(make_beam(dq_perp), make_spectrum(dk))
        scaled = evaluate_point(make_beam(scale * dq_perp, scale * DQ_PAR), make_spectrum(scale * dk, scale * K_C))
        for name in ("purity_sc", "purity_z", "d2"):
            assert getattr(scaled, name) == pytest.approx(getattr(r, name), rel=1e-12, abs=0.0), name


def traded_beam(kinetic_energy_kev, dq_perp):
    """The reference beam at another energy, with dq_par scaled by c/v_z so
    that l = dq_par (v/c) / k_c is the reference's."""
    reference, other = (derive_kinematics(e)[1] for e in (K_KEV, kinetic_energy_kev))
    return BeamParams(kinetic_energy_kev, dq_perp, DQ_PAR * other / reference)


def assert_same(a, b, what):
    assert b == pytest.approx(a, rel=1e-12, abs=0.0), what


class TestEnergyTrade:
    """The energy enters only through l = dq_par (v/c) / k_c: at fixed u,
    w and l, a 30, 200 or 1000 keV beam gives `measure`'s numbers, `dist`'s
    factors and `validate`'s lines within 1e-12 of each other, or the same
    failure. A rule that reads c/v_z or dq_par on its own fails here."""

    @pytest.mark.parametrize("dq_perp,dk", [(dq, dk) for dq, dk, _ in PANEL_REFERENCE])
    def test_same_numbers_at_fixed_l(self, make_spectrum, dq_perp, dk):
        from clpair.distributions import joint_position
        from clpair.oracles import run_suite

        spectrum = make_spectrum(dk)

        def outputs(kinetic_energy_kev):
            beam = traded_beam(kinetic_energy_kev, dq_perp)
            r = evaluate_point(beam, spectrum)
            numbers = [r.purity_sc, r.purity_z, r.var_rel_pos, r.var_tot_wavevector, r.d2, r.schmidt_number]
            try:
                _, s, t = joint_position(beam, spectrum)
                factors = [s, t]
            except ConsistencyError as exc:
                factors = [type(exc).__name__, str(exc)]
            try:
                lines = [(rep.quantity, rep.value, rep.oracle_value, rep.tolerance) for rep in run_suite(beam, spectrum)]
            except ConsistencyError as exc:
                lines = [type(exc).__name__, str(exc)]
            return r.regime, numbers, factors, lines

        regime, numbers, factors, lines = outputs(K_KEV)
        for energy in (30.0, 1000.0):
            other = outputs(energy)
            assert other[0] == regime
            for a, b, name in zip(numbers, other[1], ("purity_sc", "purity_z", "var_rel_pos", "var_tot_wv", "d2", "schmidt")):
                assert_same(a, b, name)
            if isinstance(factors[0], str):
                assert other[2] == factors
            else:
                for a, b, name in zip(factors, other[2], ("s", "T")):
                    assert a.shape == b.shape
                    np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0, err_msg=name)
            if isinstance(lines[0], str):
                assert other[3] == lines
            else:
                for a, b in zip(lines, other[3]):
                    assert a[0] == b[0]
                    for x, y in zip(a[1:], b[1:]):
                        assert_same(x, y, a[0])


# the wide-beam limit of P_sc at each longitudinal coherence length (um)
# and dk_ph
WIDE_BEAM_CASES = [(l_par, dk) for l_par in (0.13, 1.3, 13.0) for dk in (0.1, 1.0, 3.0, 30.0)]


def wide_beam_falloff(p_sc, l_par, dk):
    """|P_sc - P_z| / P_z at dq_perp 1e3 over its value at 1e4."""
    spectrum = SpectrumModel(K_C, dk)
    beams = [BeamParams(K_KEV, dq_perp, 2.0 * math.pi / l_par) for dq_perp in (1e3, 1e4)]
    p_z = purity_z(beams[0], spectrum)
    far, farther = (abs(p_sc(beam, spectrum) - p_z) / p_z for beam in beams)
    return far / farther


class TestWideBeamLimit:
    """P_sc -> P_z as dq_perp -> infinity: the transverse overlap factor
    tends to one, and its deficit goes as 1/dq_perp^2."""

    @pytest.mark.parametrize("l_par,dk", WIDE_BEAM_CASES)
    def test_p_sc_tends_to_p_z(self, l_par, dk):
        # measured 99.91-100.00, with deviations at 1e4 of 4.5e-7 to 9.3e-6
        assert wide_beam_falloff(purity_sc, l_par, dk) == pytest.approx(100.0, rel=0.01)

    @pytest.mark.parametrize("l_par,dk", WIDE_BEAM_CASES)
    def test_planted_defect_is_caught(self, l_par, dk):
        # a planted defect: P_sc with twice the longitudinal width tends to
        # another limit, so its deviation from P_z stops falling
        def doubled(beam, spectrum):
            return purity_sc(BeamParams(beam.kinetic_energy_kev, beam.dq_perp, 2.0 * beam.dq_par), spectrum)

        assert wide_beam_falloff(doubled, l_par, dk) != pytest.approx(100.0, rel=0.01)


# the narrow-beam limit of P_sc / dq_perp^2 at dk_ph 0.3 and L_par 1.3 um,
# from a 3D Gauss-Legendre sum, known to 10 digits
NARROW_BEAM_C = 0.0290515684


class TestNarrowBeamLimit:
    """P_sc / dq_perp^2 -> C(dk_ph) as dq_perp -> 0: the transverse overlap
    factor tends to 4 pi dq_perp^2 times a delta in the transverse
    wavevectors. The value is pinned, not `_checked_purity`'s verdict,
    which PURITY_ABS_TOL decides at these points."""

    # measured -1.3e-9 at 1e-4 and +4.5e-10 at 1e-5 (-1.7e-7 at 1e-3)
    @pytest.mark.parametrize("dq_perp", [1e-4, 1e-5])
    def test_p_sc_over_dq_perp_squared(self, make_beam, make_spectrum, dq_perp):
        p = purity_sc(make_beam(dq_perp), make_spectrum(0.3))
        assert p / dq_perp**2 == pytest.approx(NARROW_BEAM_C, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("dq_perp", [1e-4, 1e-5])
    def test_planted_defect_is_caught(self, make_beam, make_spectrum, dq_perp):
        # a planted defect: the spectral width off by 1e-6 of itself moves
        # the limit by 3.8e-8
        p = purity_sc(make_beam(dq_perp), make_spectrum(0.3 * (1.0 + 1e-6)))
        assert p / dq_perp**2 != pytest.approx(NARROW_BEAM_C, rel=1e-8, abs=0.0)
