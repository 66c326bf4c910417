"""Acceptance suite: the twelve primary criteria.

Each test maps to one acceptance criterion, numbered in the class
names. Shared scenario unless stated otherwise: 200 keV beam, central
wavelength 0.5 um (k_c = 12.566 um^-1), longitudinal coherence length
1.3 um (dq_par = 4.833 um^-1).
"""

import math

import numpy as np
import pytest

from clpair import BeamParams, SpectrumModel
from clpair.cli import RunConfig, SweepAxes, rows_to_csv, run_sweep
from clpair.distributions import momentum_grid, photon_marginal_kx
from clpair.measures import (
    Regime,
    evaluate_point,
    purity_sc,
    purity_z,
    rel_pos_variance_closed,
    rel_pos_variance_quadrature,
)
from clpair.model import RadialKcPhase, ZeroPhase, eval_f, eval_g
from clpair.oracles import (
    longitudinal_term_identity,
    mc_purity,
    schmidt_purity_1d,
)
from clpair.quadrature import gauss_legendre_panels

from conftest import DQ_PAR, K_C, K_KEV, schmidt_gaussian_closed, window


class TestCriterion01Normalization:
    @pytest.mark.parametrize("dk", [0.1, 1.0, 10.0, 30.0])
    def test_gamma_integrates_to_one(self, dk):
        s = SpectrumModel(12.566, dk)
        kmin, kmax = window(s, 10.0)
        kn, kw = gauss_legendre_panels(kmin, kmax, 16, 16)
        tn, tw = gauss_legendre_panels(0.0, math.pi, 8, 16)
        radial = float(np.sum(kw * kn**2 * eval_g(s, kn)))
        angular = 2.0 * math.pi * float(np.sum(tw * np.sin(tn) * eval_f(tn)))
        assert radial * angular == pytest.approx(1.0, abs=1e-8)


class TestCriterion02TotalMomentumVariance:
    @pytest.mark.parametrize("l_perp", [20.0, 1.5, 0.2])
    def test_grid_variance_equals_dq_perp_squared(self, l_perp):
        beam = BeamParams(K_KEV, 2.0 * math.pi / l_perp, DQ_PAR)
        grid = momentum_grid(beam, SpectrumModel(K_C, 0.3))
        _, var = grid.moments(lambda qx, kx: qx + kx)
        assert var == pytest.approx(beam.dq_perp**2, rel=0.005)


class TestCriterion03ClosedFormVariance:
    def test_closed_matches_quadrature_on_random_points(self):
        rng = np.random.default_rng(20260824)
        for _ in range(20):
            beam = BeamParams(K_KEV, 1.0, float(rng.uniform(0.5, 50.0)))
            s = SpectrumModel(
                float(rng.uniform(5.0, 20.0)), float(10.0 ** rng.uniform(-1.3, 1.3))
            )
            closed = rel_pos_variance_closed(beam, s, ZeroPhase())
            quad = rel_pos_variance_quadrature(beam, s, ZeroPhase())
            assert quad == pytest.approx(closed, rel=1e-4)


class TestCriterion04LongitudinalIdentity:
    def test_angular_average(self, make_beam, make_spectrum):
        rep = longitudinal_term_identity(make_beam(1.0), make_spectrum(0.3))
        assert rep.passed
        assert rep.oracle_value == pytest.approx(rep.value, rel=1e-6)


class TestCriterion05PurityMonteCarlo:
    # ten grid points spanning the parameter plane of the reference map
    POINTS = [
        (0.1, 0.3),
        (0.3, 3.0),
        (0.3, 10.0),
        (1.0, 1.0),
        (3.0, 0.3),
        (10.0, 3.0),
        (30.0, 1.0),
        (30.0, 30.0),
        (60.0, 0.3),
        (100.0, 10.0),
    ]

    @pytest.mark.parametrize("dq_perp,dk", POINTS)
    def test_within_three_standard_errors(self, dq_perp, dk, make_beam, make_spectrum):
        rep = mc_purity(make_beam(dq_perp), make_spectrum(dk), n=1_000_000)
        assert rep.passed, (
            f"purity {rep.value:.6f} vs MC {rep.oracle_value:.6f} "
            f"+/- {rep.metadata['stderr']:.6f} at ({dq_perp}, {dk})"
        )


class TestCriterion06SchmidtOracle:
    def test_svd_equals_overlap_and_closed_gaussian(self):
        sig = dq = 1.7
        kx = np.linspace(-8.0 * sig, 8.0 * sig, 500)
        qx = np.linspace(-16.0 * sig, 16.0 * sig, 1000)
        density = lambda k: np.exp(-(k**2) / (2.0 * sig**2)) / (
            math.sqrt(2.0 * math.pi) * sig
        )
        rep = schmidt_purity_1d(dq, density, kx, qx)
        assert rep.discrepancy <= 1e-3  # SVD vs overlap formula
        closed = schmidt_gaussian_closed(sig, dq)
        assert closed == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert rep.oracle_value == pytest.approx(closed, abs=1e-3)


class TestCriterion07RegimeSpots:
    def test_purity_levels(self, make_beam, make_spectrum):
        assert purity_sc(make_beam(30.0), make_spectrum(1.0)) > 0.9
        assert purity_sc(make_beam(0.3), make_spectrum(3.0)) < 0.1

    def test_regime_labels(self, make_beam, make_spectrum):
        assert evaluate_point(make_beam(0.3), make_spectrum(3.0)).regime == Regime.A
        assert evaluate_point(make_beam(3.0), make_spectrum(0.3)).regime == Regime.B
        assert evaluate_point(make_beam(60.0), make_spectrum(0.3)).regime == Regime.C


class TestCriterion08LongitudinalPurityCurves:
    L_PAR = [0.13, 1.3, 13.0]

    @pytest.mark.parametrize("l_par", L_PAR)
    def test_unity_below_knee_and_monotone(self, l_par):
        dq_par = 2.0 * math.pi / l_par
        beam = BeamParams(K_KEV, 1.0, dq_par)
        # probe at a tenth of the kernel scale dq_par * v_z / c (see the
        # decisions ledger: the bare ratio 0.1 gives 0.9898 at 200 keV)
        assert purity_z(beam, SpectrumModel(K_C, 0.1 * dq_par / beam.c_over_vz)) > 0.99
        dks = dq_par * np.logspace(-1.0, 1.0, 9)
        values = [purity_z(beam, SpectrumModel(K_C, dk)) for dk in dks]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("l_par", L_PAR)
    def test_knee_near_dq_par(self, l_par):
        dq_par = 2.0 * math.pi / l_par
        beam = BeamParams(K_KEV, 1.0, dq_par)
        lo, hi = 0.01 * dq_par, 100.0 * dq_par
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            if purity_z(beam, SpectrumModel(K_C, mid)) > 2.0 / 3.0:
                lo = mid
            else:
                hi = mid
        knee = math.sqrt(lo * hi)
        assert dq_par / 3.0 < knee < 3.0 * dq_par


def epr_contour_dq_perp(dk, phase=ZeroPhase()):
    """dq_perp on the D^2 = 1 contour: the relative-position variance is
    independent of dq_perp, so dq_perp* = var^(-1/2) exactly."""
    beam = BeamParams(K_KEV, 1.0, DQ_PAR)
    return 1.0 / math.sqrt(rel_pos_variance_closed(beam, SpectrumModel(K_C, dk), phase))


class TestCriterion09ContourScaling:
    def test_small_dk_proportionality(self):
        dks = np.logspace(math.log10(0.03), math.log10(0.3), 7)
        ratios = [dk / epr_contour_dq_perp(dk) for dk in dks]
        assert max(ratios) / min(ratios) < 1.2

    def test_large_dk_constant_dq_perp(self):
        dks = np.logspace(math.log10(30.0), math.log10(300.0), 7)
        contour = [epr_contour_dq_perp(dk) for dk in dks]
        assert max(contour) / min(contour) < 1.2


class TestCriterion10PhaseInfluence:
    def test_xi1_value(self):
        # eta1 = theta: xi1 = pi int sin(theta) cos^2(theta) f(theta) dtheta
        tn, tw = gauss_legendre_panels(0.0, math.pi, 24, 16)
        xi1 = math.pi * float(np.sum(tw * np.sin(tn) * np.cos(tn) ** 2 * eval_f(tn)))
        assert xi1 == pytest.approx(3.0 / 14.0, abs=1e-10)

    def test_radial_kc_phase_lengthens_vertical_segment(self):
        # count dk cells whose contour dq_perp lies within 10% of the
        # large-dk asymptote; the quadratic radial phase with xi2 = 100
        # flattens the contour at much smaller dk
        dks = np.logspace(-1.5, 2.5, 33)

        def vertical_cells(phase):
            contour = np.array([epr_contour_dq_perp(dk, phase) for dk in dks])
            asymptote = contour[-1]
            return int(np.sum(np.abs(contour / asymptote - 1.0) < 0.1))

        n_zero = vertical_cells(ZeroPhase())
        n_kc = vertical_cells(RadialKcPhase(100.0))
        assert n_kc > n_zero


class TestCriterion11BimodalMarginal:
    def test_symmetric_bimodal(self):
        s = SpectrumModel(K_C, 0.3)
        kx = np.linspace(-14.0, 14.0, 2801)
        g = photon_marginal_kx(s, kx)
        centre = g[kx.size // 2]
        peak_idx = int(np.argmax(g))
        assert kx[peak_idx] != 0.0
        # mirror peak at the reflected index, equal height by symmetry
        mirror = kx.size - 1 - peak_idx
        assert g[mirror] == pytest.approx(g[peak_idx], rel=1e-10)
        assert centre < 0.9 * g[peak_idx]
        # exactly two local maxima of the smoothed profile
        interior = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
        assert int(np.sum(interior)) == 2


class TestCriterion12Determinism:
    def test_repeated_sweep_byte_identical(self):
        cfg = RunConfig(
            kinetic_energy_kev=K_KEV,
            dq_par=DQ_PAR,
            k_c=K_C,
            dk_ph=0.3,
            sweep=SweepAxes(0.5, 20.0, 3, 0.3, 3.0, 2),
        )
        first = rows_to_csv(run_sweep(cfg))
        second = rows_to_csv(run_sweep(cfg))
        assert first == second
