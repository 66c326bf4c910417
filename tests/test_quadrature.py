import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from clpair import ConvergenceError, DomainError, SpectrumModel
from clpair.model import QuadratureSpec, eval_g
from clpair.quadrature import GammaSampler, gauss_legendre_panels

from conftest import window
from reference_quadrature import integrate_1d


class TestIntegrate1D:
    def test_polynomial(self):
        res = integrate_1d(lambda x: x**2, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_truncated_gaussian(self):
        res = integrate_1d(
            lambda x: math.exp(-(x**2)),
            -8.0,
            8.0,
            QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14),
        )
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_spectrum_normalization(self):
        s = SpectrumModel(12.566, 1.0)
        res = integrate_1d(lambda k: k**2 * eval_g(s, k), *window(s, 10.0), vectorized=True)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_error_estimate_bounds_true_error(self):
        res = integrate_1d(lambda x: math.sin(10.0 * x), 0.0, 3.0)
        exact = (1.0 - math.cos(30.0)) / 10.0
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)

    def test_budget_exhaustion_carries_best_estimate(self):
        quad = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError) as err:
            integrate_1d(lambda x: abs(x - 0.317) ** 0.1, 0.0, 1.0, quad, max_evals=500)
        assert err.value.best_estimate is not None
        assert err.value.best_estimate.value == pytest.approx(0.869, rel=0.05)

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 1.0, 1.0)

    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_polynomials(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        res = integrate_1d(poly, -1.0, 2.0, vectorized=True)
        exact = poly.integ()(2.0) - poly.integ()(-1.0)
        assert res.value == pytest.approx(exact, rel=1e-10, abs=1e-9)


class TestGammaSampler:
    def test_cos2_theta_moment(self):
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        rng = np.random.default_rng(3)
        _, theta, _ = sampler.sample_spherical(200_000, rng)
        m = np.mean(np.cos(theta) ** 2)
        assert m == pytest.approx(3.0 / 7.0, abs=4.0 * np.std(np.cos(theta) ** 2) / math.sqrt(200_000))

    def test_radial_mean_matches_quadrature(self):
        s = SpectrumModel(12.566, 1.5)
        sampler = GammaSampler(s)
        rng = np.random.default_rng(11)
        k, _, _ = sampler.sample_spherical(200_000, rng)
        num, _ = quad(lambda kk: kk**3 * eval_g(s, kk), s.kmin, s.kmax, points=[s.k_c], epsabs=1e-12)
        assert np.mean(k) == pytest.approx(num, abs=4.0 * np.std(k) / math.sqrt(200_000))

    def test_determinism(self):
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        a = sampler.sample_spherical(5000, np.random.default_rng(42))
        b = sampler.sample_spherical(5000, np.random.default_rng(42))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_sorted_lookup_matches_plain_interp(self):
        # the ascending-order lookup must give bitwise the draws of a
        # direct np.interp on the same uniforms
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        u = np.random.default_rng(11).random(200_000)
        k, _, _ = sampler.sample_spherical(200_000, np.random.default_rng(11))
        np.testing.assert_array_equal(k, np.interp(u, sampler._cdf, sampler._ktab))

    def test_draws_pinned(self):
        # sha256 of (k, theta, phi) for a fixed seed, taken with numpy 2.4
        # on x86-64: a change to the sampler's operations or their order
        # moves the draws, and with them every Monte Carlo oracle value
        sampler = GammaSampler(SpectrumModel(2.0 * math.pi / 0.5, 1.0))
        k, theta, phi = sampler.sample_spherical(10_000, np.random.default_rng(20261018))
        digest = hashlib.sha256(k.tobytes() + theta.tobytes() + phi.tobytes()).hexdigest()
        assert digest == "55470f2cd0381989e384211526647c9b8a3367e46487b84a0300e6bf974c1bcc"

    def test_filtered_sampling(self):
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        n = 50_000
        _, theta, _ = sampler.sample_spherical(n, np.random.default_rng(5))
        # an upper-hemisphere filter applied to the draws: the polar law is
        # even under theta -> pi - theta, so half the draws pass and they
        # keep E[cos(theta)^2] = 3/7
        kept = theta[theta < math.pi / 2.0]
        assert np.all((theta > 0.0) & (theta < math.pi))
        assert kept.size / n == pytest.approx(0.5, abs=4.0 * 0.5 / math.sqrt(n))
        assert np.mean(np.cos(kept) ** 2) == pytest.approx(3.0 / 7.0, abs=0.01)


class TestPanels:
    def test_panel_weights_sum_to_interval(self):
        nodes, wts = gauss_legendre_panels(-2.0, 5.0, 7, 16)
        assert np.sum(wts) == pytest.approx(7.0, abs=1e-12)
        assert nodes.min() > -2.0 and nodes.max() < 5.0

    def test_cosine_integral(self):
        nodes, wts = gauss_legendre_panels(0.0, math.pi, 4, 16)
        assert np.sum(wts * np.cos(nodes)) == pytest.approx(0.0, abs=1e-13)
