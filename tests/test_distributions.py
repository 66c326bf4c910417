import math

import numpy as np
import pytest
from scipy.signal import argrelextrema

from clpair import DomainError, apply_filter
from clpair.distributions import (
    JointGrid,
    joint_momentum,
    joint_position,
    momentum_grid,
    photon_marginal_kx,
)
from clpair.errors import ResolutionError
from clpair.measures import rel_pos_variance_closed
from clpair.model import QuadratureSpec
from clpair.quadrature import integrate_1d

from conftest import DQ_PAR


class TestJointGrid:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            JointGrid(np.arange(3.0), np.arange(4.0), np.zeros((4, 3)))

    def test_non_monotone_axis(self):
        with pytest.raises(DomainError):
            JointGrid(np.array([0.0, 2.0, 1.0]), np.arange(3.0), np.zeros((3, 3)))

    def test_negative_density(self):
        d = np.zeros((3, 3))
        d[1, 1] = -1.0
        with pytest.raises(DomainError):
            JointGrid(np.arange(3.0), np.arange(3.0), d)

    def test_integral_and_moments(self):
        # separable bilinear density on the unit square
        x = np.linspace(0.0, 1.0, 201)
        d = 4.0 * np.outer(x, x)
        g = JointGrid(x, x, d)
        assert g.integral() == pytest.approx(1.0, abs=1e-4)
        mean, var = g.moments(lambda a, b: a + b)
        assert mean == pytest.approx(4.0 / 3.0, abs=1e-3)
        assert var == pytest.approx(2.0 / 18.0, abs=1e-3)


class TestPhotonMarginal:
    def test_normalized(self, make_spectrum):
        s = make_spectrum(0.3)
        res = integrate_1d(lambda kx: photon_marginal_kx(s, kx), -20.0, 20.0, vectorized=True)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_even_in_kx(self, make_spectrum):
        s = make_spectrum(1.0)
        kx = np.linspace(0.1, 14.0, 25)
        np.testing.assert_allclose(
            photon_marginal_kx(s, kx), photon_marginal_kx(s, -kx), rtol=1e-13
        )

    def test_vanishes_outside_support(self, make_spectrum):
        s = make_spectrum(0.3)
        assert photon_marginal_kx(s, np.array([50.0]))[0] == 0.0

    def test_bimodal_peak_location(self, make_spectrum):
        # narrow spectrum: peaks near +/- k_c sin(pi/4) / sqrt(3)? -> locate
        # empirically; must be symmetric, away from zero, and a local dip at 0
        s = make_spectrum(0.3)
        kx = np.linspace(-14.0, 14.0, 1401)
        g = photon_marginal_kx(s, kx)
        peaks = argrelextrema(g, np.greater, order=5)[0]
        locs = kx[peaks]
        assert len(locs) == 2
        assert locs[0] == pytest.approx(-locs[1], abs=0.02)
        assert g[700] < 0.8 * g[peaks[0]]

    def test_filtered_matches_unfiltered_for_constant_weight(self, make_spectrum):
        s0 = make_spectrum(1.0)
        s1 = apply_filter(s0, lambda k, th: 0.5 * np.ones(np.broadcast(k, th).shape))
        kx = np.linspace(-10.0, 10.0, 21)
        np.testing.assert_allclose(
            photon_marginal_kx(s1, kx), photon_marginal_kx(s0, kx), rtol=1e-6, atol=1e-12
        )


class TestMomentumGrid:
    def test_normalized_and_named(self, make_beam, make_spectrum):
        g = momentum_grid(make_beam(4.19), make_spectrum(0.3))
        assert abs(g.integral() - 1.0) <= 0.01
        assert g.axis1_name == "qx_um_inv" and g.axis2_name == "kx_um_inv"

    def test_total_momentum_variance(self, make_beam, make_spectrum):
        b = make_beam(4.19)
        g = momentum_grid(b, make_spectrum(0.3))
        _, var = g.moments(lambda qx, kx: qx + kx)
        assert var == pytest.approx(b.dq_perp**2, rel=5e-3)

    def test_parity(self, make_beam, make_spectrum):
        g = momentum_grid(make_beam(2.0), make_spectrum(0.5))
        np.testing.assert_allclose(g.density, g.density[::-1, ::-1], rtol=1e-10, atol=1e-14)

    def test_matches_pointwise_product(self, make_beam, make_spectrum):
        b, s = make_beam(1.0), make_spectrum(1.0)
        g = momentum_grid(b, s)
        i, j = 10, 100
        assert g.density[i, j] == pytest.approx(
            joint_momentum(b, s, g.axis1[i], g.axis2[j]).item(), rel=1e-12
        )

    def test_resolution_guard(self, make_beam, make_spectrum):
        with pytest.raises(ResolutionError):
            momentum_grid(make_beam(1.0), make_spectrum(1.0), n_kx=16)


@pytest.mark.parametrize("l_perp", [20.0, 1.5, 0.2], ids=["wide", "mid", "narrow"], scope="class")
class TestJointPosition:
    # one joint_position grid (about 3 s) per width, shared by the class's tests
    @pytest.fixture(scope="class")
    def grid_and_params(self, l_perp, make_beam, make_spectrum):
        b = make_beam(2.0 * math.pi / l_perp)
        s = make_spectrum(0.3)
        return b, s, joint_position(b, s)

    def test_normalized(self, grid_and_params):
        _, _, g = grid_and_params
        assert g.integral() == pytest.approx(1.0, abs=0.01)

    def test_relative_position_variance(self, grid_and_params):
        b, s, g = grid_and_params
        mean, var = g.moments(lambda xe, xp: xe - xp)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert var == pytest.approx(rel_pos_variance_closed(b, s), rel=2e-3)

    def test_electron_marginal_width(self, grid_and_params):
        b, _, g = grid_and_params
        mean, var = g.moments(lambda xe, xp: xe + 0.0 * xp)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(1.0 / (4.0 * b.dq_perp**2), rel=2e-3)

    def test_parity(self, grid_and_params):
        _, _, g = grid_and_params
        np.testing.assert_allclose(
            g.density, g.density[::-1, ::-1], rtol=1e-8, atol=1e-12
        )


class TestJointPositionGuards:
    def test_filtered_rejected(self, make_beam, make_spectrum):
        s = apply_filter(
            make_spectrum(0.3), lambda k, th: np.ones(np.broadcast(k, th).shape)
        )
        with pytest.raises(DomainError):
            joint_position(make_beam(1.0), s)
