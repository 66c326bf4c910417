import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from clpair import (
    BeamParams,
    ConvergenceError,
    DomainError,
    SpectrumModel,
    ZeroPhase,
)
from clpair.measures import (
    _H_SERIES,
    _H_SMALL_X,
    _H_TAIL_C,
    _H_TAIL_X,
    PURITY_QUAD,
    _purity_once,
    _sonine_h,
    Regime,
    RegimeThresholds,
    classify_regime,
    evaluate_point,
    purity_sc,
    purity_z,
    rel_pos_variance_closed,
    rel_pos_variance_quadrature,
    total_wavevector_variance,
)
from clpair.model import (
    PolarLinearPhase,
    QuadratureSpec,
    RadialDkPhase,
    RadialKcPhase,
    eval_f,
)
from clpair.quadrature import gauss_legendre_panels

from conftest import DQ_PAR, K_C

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

    def test_bounded(self, make_beam, make_spectrum):
        p = purity_sc(make_beam(5.0), make_spectrum(2.0))
        assert 0.0 < p <= 1.0

    def test_unattainable_tolerance_raises(self, make_beam, make_spectrum):
        quad = QuadratureSpec(rel_tol=1e-18, abs_tol=0.0)
        with pytest.raises(ConvergenceError) as err:
            purity_sc(make_beam(1.0), make_spectrum(1.0), quad)
        assert err.value.best_estimate is not None

    @pytest.mark.parametrize("excess,clipped", [(0.5 * PURITY_QUAD.rel_tol, True), (2.0 * PURITY_QUAD.rel_tol, False)])
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


class TestPurityScPanel:
    """The ROADMAP's 12-point panel plus the README point, pinned to the
    values of the former Bessel-kernel quadrature (alpha and u paths)."""

    @pytest.mark.parametrize("dq_perp,dk,expected", PANEL_REFERENCE)
    def test_matches_frozen_panel(self, dq_perp, dk, expected, make_beam, make_spectrum):
        p = purity_sc(make_beam(dq_perp), make_spectrum(dk))
        assert abs(p - expected) <= max(PURITY_QUAD.abs_tol, PURITY_QUAD.rel_tol * expected)


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
    1e-3 abs_tol; an abs_tol of zero keeps the whole 7/b grid."""

    RESOLUTIONS = [(64, 1.0), (96, 1.5)]  # purity_sc's base and refined passes
    UNCUT = dataclasses.replace(PURITY_QUAD, abs_tol=0.0)

    def _cut_error(self, beam, spectrum, n_rad, refine):
        cut = _purity_once(beam, spectrum, PURITY_QUAD, n_rad, refine)
        return abs(cut - _purity_once(beam, spectrum, self.UNCUT, n_rad, refine))

    @pytest.mark.parametrize("n_rad,refine", RESOLUTIONS)
    @pytest.mark.parametrize("dq_perp,dk,expected", PANEL_REFERENCE)
    def test_cut_within_fraction_of_abs_tol(self, dq_perp, dk, expected, n_rad, refine, make_beam, make_spectrum):
        err = self._cut_error(make_beam(dq_perp), make_spectrum(dk), n_rad, refine)
        assert err <= 1e-3 * PURITY_QUAD.abs_tol

    def test_planted_defect_in_envelope(self, make_beam, make_spectrum, monkeypatch):
        import clpair.measures as measures

        monkeypatch.setattr(measures, "_H_TAIL_C", _H_TAIL_C / 100.0)
        worst = max(
            self._cut_error(make_beam(dq_perp), make_spectrum(dk), n_rad, refine)
            for dq_perp, dk, _ in PANEL_REFERENCE
            for n_rad, refine in self.RESOLUTIONS
        )
        assert worst > 1e-3 * PURITY_QUAD.abs_tol

    def test_refined_pass_evaluates_under_a_quarter_of_the_grid(self, make_beam, make_spectrum, monkeypatch):
        # a count of the t-columns passed to _sonine_h, not a timing
        import clpair.measures as measures

        columns = []

        def counting(x):
            columns.append(np.shape(x)[1])
            return _sonine_h(x)

        monkeypatch.setattr(measures, "_sonine_h", counting)
        beam, spectrum = make_beam(0.1), make_spectrum(30.0)
        _purity_once(beam, spectrum, self.UNCUT, 96, 1.5)
        assert sum(columns) == 33_776
        columns.clear()
        _purity_once(beam, spectrum, PURITY_QUAD, 96, 1.5)
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


class TestRelPosVariance:
    def test_closed_matches_quadrature_zero_phase(self, make_beam, make_spectrum):
        b, s = make_beam(2.0), make_spectrum(0.7)
        closed = rel_pos_variance_closed(b, s)
        quad = rel_pos_variance_quadrature(b, s)
        assert quad == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize(
        "phase",
        [PolarLinearPhase(3.0 / 14.0), RadialKcPhase(3.0), RadialDkPhase(0.4)],
        ids=["polar", "radial_kc", "radial_dk"],
    )
    def test_closed_matches_quadrature_with_phase(self, phase, make_beam, make_spectrum):
        b, s = make_beam(2.0), make_spectrum(0.5)
        assert rel_pos_variance_quadrature(b, s, phase) == pytest.approx(
            rel_pos_variance_closed(b, s, phase), rel=1e-6
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

    def test_threshold_configurable(self):
        th = RegimeThresholds(purity_threshold=0.95)
        assert classify_regime(0.9, 5.0, th) == Regime.B

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            RegimeThresholds(purity_threshold=1.5)
        for bad in (math.nan, 0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                RegimeThresholds(epr_threshold=bad)
        with pytest.raises(DomainError):
            RegimeThresholds(purity_threshold=math.nan)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            classify_regime(math.nan, 1.0)


class TestDEta:
    def test_zero(self, make_spectrum):
        assert ZeroPhase().d_eta(make_spectrum(0.5)) == 0.0

    def test_radial_kc_value(self):
        s = SpectrumModel(12.566, 0.3)
        assert RadialKcPhase(100.0).d_eta(s) == pytest.approx(200.0 / (7.0 * 12.566**2), rel=1e-10)
        assert RadialKcPhase(100.0).d_eta(s) == pytest.approx(0.1809, rel=1e-3)


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
