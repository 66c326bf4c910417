import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from clpair import BeamParams, ConvergenceError, DomainError, SpectrumModel
import clpair.cli as cli
import clpair.measures as measures
import clpair.quadrature as quadrature
from clpair.constants import MAX_ARRAY_BYTES
from clpair.distributions import N_KX, _rho_rule, joint_position
from clpair.errors import ResolutionError
from clpair.model import eval_g
from clpair.oracles import _schmidt_axes
from clpair.quadrature import GammaSampler, check_budget, gauss_legendre_panels, longitudinal_weights

from conftest import DQ_PAR, K_C, K_KEV, window
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
            rel_tol=1e-13,
            abs_tol=1e-14,
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
        with pytest.raises(ConvergenceError) as err:
            integrate_1d(lambda x: abs(x - 0.317) ** 0.1, 0.0, 1.0, rel_tol=1e-15, abs_tol=1e-300, max_evals=500)
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


def assert_cos_theta_law(u):
    """The draws u = cos(theta) follow (15/4)(1 - u^2) u^2 on (-1, 1): its
    moments E[u^2] = 3/7 and E[u^4] = 5/21, each within 4 standard errors."""
    assert np.all(np.abs(u) < 1.0)
    for power, mean in ((2, 3.0 / 7.0), (4, 5.0 / 21.0)):
        v = u**power
        assert np.mean(v) == pytest.approx(mean, abs=4.0 * np.std(v) / math.sqrt(u.size))


class TestGammaSampler:
    def test_cos_theta_moments(self):
        s = SpectrumModel(12.566, 1.0)
        _, cos_theta, _ = GammaSampler(s).from_uniforms(*np.random.default_rng(3).random((4, 200_000)))
        assert_cos_theta_law(cos_theta)

    def test_moments_catch_a_wrong_law(self):
        # a planted defect: rejection against (1 - u^2) alone, the law of a
        # profile without the cos^2(theta) factor, has E[u^2] = 1/5
        rng = np.random.default_rng(3)
        n = 200_000
        u = rng.uniform(-1.0, 1.0, 4 * n)
        u = u[rng.random(4 * n) < 1.0 - u**2][:n]
        assert u.size == n
        with pytest.raises(AssertionError):
            assert_cos_theta_law(u)

    def test_moments_catch_a_wrong_root(self):
        # a planted defect: cbrt(U) V^(1/4) in place of V^(1/5) makes u^2
        # Beta(3/2, 1) Beta(2, 1), with E[u^2] = 2/5 for 3/7
        rng = np.random.default_rng(3)
        n = 200_000
        u = np.cbrt(rng.uniform(-1.0, 1.0, n)) * rng.random(n) ** 0.25
        with pytest.raises(AssertionError):
            assert_cos_theta_law(u)

    def test_radial_mean_matches_quadrature(self):
        s = SpectrumModel(12.566, 1.5)
        sampler = GammaSampler(s)
        rng = np.random.default_rng(11)
        k, _, _ = sampler.from_uniforms(*rng.random((4, 200_000)))
        num, _ = quad(lambda kk: kk**3 * eval_g(s, kk), s.kmin, s.kmax, points=[s.k_c], epsabs=1e-12)
        assert np.mean(k) == pytest.approx(num, abs=4.0 * np.std(k) / math.sqrt(200_000))

    def test_determinism(self):
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        a = sampler.from_uniforms(*np.random.default_rng(42).random((4, 5000)))
        b = sampler.from_uniforms(*np.random.default_rng(42).random((4, 5000)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_guide_table_matches_plain_interp(self):
        # the guide-table lookup must give bitwise the draws of a direct
        # np.interp on the same uniforms
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        u = np.random.default_rng(11).random(200_000)
        k, _, _ = sampler.from_uniforms(*np.random.default_rng(11).random((4, 200_000)))
        np.testing.assert_array_equal(k, np.interp(u, sampler._cdf, sampler._ktab))

    @pytest.mark.parametrize("dk_ph", [1.0, 30.0], ids=["s0", "kmin=0"])
    def test_guide_table_is_exact_at_edges_and_tails(self, dk_ph):
        # k is np.interp(level, cdf, ktab) bit for bit where the lookup can
        # slip: at the guide cells' edges c / cells and the floats either
        # side, at the CDF's nodes and the floats either side, and on the
        # flat tails, where a cell holds several nodes
        sampler = GammaSampler(SpectrumModel(2.0 * math.pi / 0.5, dk_ph))
        cdf, cells = sampler._cdf, sampler._cells
        edges = np.arange(cells) / cells
        tails = np.random.default_rng(5).random(20_000) * 1e-3
        levels = np.concatenate(
            [edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0), cdf[:-1], np.nextafter(cdf[:-1], 1.0),
             np.nextafter(cdf[1:], 0.0), tails, 1.0 - tails]
        )
        levels = levels[levels < 1.0]
        # the tails reach cells of several nodes, which the lookup searches
        assert np.count_nonzero(sampler._multi[(levels * cells).astype(int)]) > 1000
        k, _, _ = sampler.from_uniforms(levels.copy(), *np.random.default_rng(0).random((3, levels.size)))
        np.testing.assert_array_equal(k, np.interp(levels, cdf, sampler._ktab))

    @pytest.mark.parametrize("dk_ph", [1.0, 30.0], ids=["s0", "kmin=0"])
    def test_full_search_takes_only_crowded_cells(self, dk_ph, monkeypatch):
        # only levels in cells of several CDF nodes are searched in full:
        # 3.5% and 4.4% of uniform levels here (145 and 180 of 4095 cells);
        # a lookup that searches every occupied cell, or puts every level
        # in cell 0, gives the same k by searching most or all of them
        sampler = GammaSampler(SpectrumModel(2.0 * math.pi / 0.5, dk_ph))
        searched = []
        exact = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda a, v, side: searched.append(np.size(v)) or exact(a, v, side=side))
        levels = np.random.default_rng(3).random(200_000)
        sampler._interval(levels)
        assert sum(searched) <= 0.05 * levels.size

    def test_draws_pinned(self):
        # sha256 of (k, cos(theta), phi) for a fixed seed, taken with numpy
        # 2.4 on x86-64: a change to the sampler's operations or their order
        # moves the draws, and with them every Monte Carlo oracle value
        sampler = GammaSampler(SpectrumModel(2.0 * math.pi / 0.5, 1.0))
        k, cos_theta, phi = sampler.from_uniforms(*np.random.default_rng(20261018).random((4, 10_000)))
        digest = hashlib.sha256(k.tobytes() + cos_theta.tobytes() + phi.tobytes()).hexdigest()
        assert digest == "14b007542699bc5e9fc848338207666c113419533de01cf93e9a149552d9e651"

    def test_filtered_sampling(self):
        s = SpectrumModel(12.566, 1.0)
        sampler = GammaSampler(s)
        n = 50_000
        _, cos_theta, _ = sampler.from_uniforms(*np.random.default_rng(5).random((4, n)))
        # an upper-hemisphere filter applied to the draws: the polar law is
        # even under cos(theta) -> -cos(theta), so half the draws pass and
        # they keep E[cos(theta)^2] = 3/7
        kept = cos_theta[cos_theta > 0.0]
        assert np.all(np.abs(cos_theta) < 1.0)
        assert kept.size / n == pytest.approx(0.5, abs=4.0 * 0.5 / math.sqrt(n))
        assert np.mean(kept**2) == pytest.approx(3.0 / 7.0, abs=0.01)


class TestPanels:
    def test_panel_weights_sum_to_interval(self):
        nodes, wts = gauss_legendre_panels(-2.0, 5.0, 7, 16)
        assert np.sum(wts) == pytest.approx(7.0, abs=1e-12)
        assert nodes.min() > -2.0 and nodes.max() < 5.0

    def test_cosine_integral(self):
        nodes, wts = gauss_legendre_panels(0.0, math.pi, 4, 16)
        assert np.sum(wts * np.cos(nodes)) == pytest.approx(0.0, abs=1e-13)


def _t_grid(make_beam, make_spectrum, monkeypatch):
    # (0.1, 30) with the tail cut off: the base pass keeps its whole 7/b span
    monkeypatch.setattr(measures, "PURITY_ABS_TOL", 0.0)
    measures.purity_sc(make_beam(0.1), make_spectrum(30.0))


def _rho_nodes(make_beam, make_spectrum, monkeypatch):
    # w = 1e-5: the graded panels below kmin number about 1/(2w)
    s = make_spectrum(1e-5 * make_spectrum(1.0).k_c)
    return _rho_rule(s, s.kmax)[0]


def _schmidt_q(make_beam, make_spectrum, monkeypatch):
    return _schmidt_axes(make_beam(1e-3), make_spectrum(1.0))


def _sweep_plane(make_beam, make_spectrum, monkeypatch):
    # the benchmark's 4 x 3 README plane, its cells not evaluated
    monkeypatch.setattr(cli, "_cell_row", lambda cfg, dq_perp, dk_ph: dq_perp)
    cfg = cli.RunConfig(K_KEV, DQ_PAR, K_C, 1.0, 1.0, sweep=cli.SweepAxes(0.1, 100.0, 4, 0.1, 30.0, 3))
    return np.array(cli.run_sweep(cfg, threads=1))


# each builder's guard at one fixed point: the builder, the grid its
# refusal names, its count there and the bytes it holds per item
GUARDS = {
    "t-grid": (_t_grid, "purity t-nodes", 22_512, 16),
    "lattice-cells": (
        lambda make_beam, make_spectrum, _: joint_position(make_beam(1e-3), make_spectrum(1.0)),
        "position lattice cells",
        143 * 245_231,
        16,
    ),
    # L_par 1e10 um: 20,163 cells whose lags span 2.6e11 values
    "lattice-lags": (
        lambda make_beam, make_spectrum, _: joint_position(make_beam(3.0, 2.0 * math.pi / 1e10), make_spectrum(0.3)),
        "position lattice lags",
        260_606_028_240,
        9,
    ),
    "schmidt-q": (_schmidt_q, "Schmidt oracle q points", 370_303, 8 * N_KX),
    "rho-nodes": (_rho_nodes, "position kernel rho nodes", 800_256, 32),
    "sweep-cells": (_sweep_plane, "sweep cells", 12, 4207),
}


class TestArrayBudget:
    """`check_budget` alone decides whether a grid fits in MAX_ARRAY_BYTES.
    At one fixed point per builder, a budget one byte short of the grid's
    need refuses it, naming the grid and its count, before anything near
    its size is allocated."""

    @pytest.mark.parametrize("item_bytes", [9, 16, 32, 8 * N_KX])
    def test_threshold_is_the_count_that_fills_the_budget(self, item_bytes):
        # n items fit exactly when n <= MAX_ARRAY_BYTES // item_bytes
        fits = MAX_ARRAY_BYTES // item_bytes
        check_budget("cells", fits, item_bytes)
        with pytest.raises(ResolutionError):
            check_budget("cells", fits + 1, item_bytes)

    def test_message_rounds_the_count(self):
        # a 129-digit count reads as four significant digits
        with pytest.raises(ResolutionError) as err:
            check_budget("position lattice cells", 141 * 18_852_950_712_528_379_525 * 10**108, 16)
        assert str(err.value) == "2.658e+129 position lattice cells at 16 bytes each exceed the 64 MiB array budget"

    @pytest.mark.parametrize("guard", list(GUARDS))
    def test_one_byte_short_is_refused_before_the_grid(self, guard, make_beam, make_spectrum, monkeypatch):
        build, grid, count, item_bytes = GUARDS[guard]
        if guard == "t-grid":
            # the tail cut reads the base pass's longitudinal weights before
            # the count is known: a cached 64 x 64 table, sized by the radial
            # panels alone, whose build is not the grid's allocation
            spectrum = make_spectrum(30.0)
            longitudinal_weights(4, (spectrum.kmax - spectrum.kmin) / 4, make_beam(0.1).alpha)
        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", count * item_bytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError) as err:
                build(make_beam, make_spectrum, monkeypatch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith(f"{count:.4g} {grid} at {item_bytes} bytes each exceed")
        assert peak < 0.1 * count * item_bytes

    @pytest.mark.parametrize("guard", ["schmidt-q", "rho-nodes", "sweep-cells"])
    def test_a_budget_of_the_need_admits_the_grid(self, guard, make_beam, make_spectrum, monkeypatch):
        build, _, count, item_bytes = GUARDS[guard]
        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", count * item_bytes)
        assert build(make_beam, make_spectrum, monkeypatch).size == count


def legendre_basis(order, y):
    """The `order`-node Gauss-Legendre rule's Lagrange basis at `y` by its
    Legendre expansion, whose coefficients (n + 1/2) w_i P_n(x_i) the rule
    gives exactly: a form that shares nothing with the barycentric one."""
    x, w = quadrature._leggauss(order)
    return legvander(y, order - 1) @ ((np.arange(order) + 0.5)[:, None] * legvander(x, order - 1).T * w)


class TestLagrangeBasis:
    @pytest.mark.parametrize("order", [16, 32])
    def test_unit_rows_on_the_nodes_and_the_expansion_between_them(self, order):
        x, _ = quadrature._leggauss(order)
        y = np.concatenate([np.linspace(-1.0, 1.0, 9), x])
        basis = quadrature._lagrange_basis(order, y)
        np.testing.assert_array_equal(basis[9:], np.eye(order))
        # the expansion's rounding: 9e-15 here at 16 nodes, 1e-13 at 32
        assert np.max(np.abs(basis[:9] - legendre_basis(order, y[:9]))) <= 2e-13


def brute_force_weights(n_panels, width, alpha, fine_panels):
    """W by a fine composite rule in both variables: each panel's 16-node
    `legendre_basis` sampled on `fine_panels` 16-node panels of that panel."""
    fx, fw = gauss_legendre_panels(-1.0, 1.0, fine_panels)
    basis = legendre_basis(16, fx) * fw[:, None]
    h = 0.5 * width
    blocks = [
        h * h * basis.T @ np.exp(-alpha * (h * (fx[:, None] - fx[None, :]) - 2.0 * h * d) ** 2) @ basis
        for d in range(n_panels)
    ]
    weights = np.zeros((16 * n_panels, 16 * n_panels))
    for p in range(n_panels):
        for q in range(n_panels):
            weights[16 * p : 16 * p + 16, 16 * q : 16 * q + 16] = blocks[q - p] if q >= p else blocks[p - q].T
    return weights


def spectrum_weights(l_par, dk_ph, n_panels):
    """`longitudinal_weights` of a README spectrum at L_par um, its panel
    width and alpha, and the pointwise w w^T o E on the same nodes."""
    beam, spectrum = BeamParams(K_KEV, 1.0, 2.0 * math.pi / l_par), SpectrumModel(K_C, dk_ph)
    width = (spectrum.kmax - spectrum.kmin) / n_panels
    kn, kw = gauss_legendre_panels(spectrum.kmin, spectrum.kmax, n_panels)
    pointwise = np.outer(kw, kw) * np.exp(-beam.alpha * np.subtract.outer(kn, kn) ** 2)
    return longitudinal_weights(n_panels, width, beam.alpha), width, beam.alpha, pointwise


class TestLongitudinalWeights:
    """W[i, j], the longitudinal Gaussian integrated against two panels'
    Lagrange bases, which P_sc and P_z share."""

    @pytest.mark.parametrize("dk_ph", [1.0, 30.0])
    def test_matches_brute_force_at_long_coherence(self, dk_ph):
        # L_par 13 um: at dk_ph 30 the Gaussian's width is 1/40 of a panel,
        # which 64 fine panels a panel resolve
        weights, width, alpha, _ = spectrum_weights(13.0, dk_ph, 6)
        brute = brute_force_weights(6, width, alpha, 64)
        assert np.max(np.abs(weights - brute)) <= 1e-14 * np.max(np.abs(brute))

    @pytest.mark.parametrize("l_par,dk_ph", [(0.13, 1.0), (1.3, 1.0), (1.3, 0.3), (13.0, 0.1)])
    @pytest.mark.parametrize("n_panels", [4, 6])
    def test_is_the_pointwise_rule_where_it_resolves_the_gaussian(self, l_par, dk_ph, n_panels):
        # to rounding: 9e-15 of the largest entry at worst, about 40 ulps
        weights, _, _, pointwise = spectrum_weights(l_par, dk_ph, n_panels)
        assert np.max(np.abs(weights - pointwise)) <= 2e-14 * np.max(pointwise)

    @pytest.mark.parametrize("l_par,dk_ph", [(0.13, 30.0), (13.0, 30.0), (590.0, 30.0)])
    def test_symmetric_with_a_positive_diagonal(self, l_par, dk_ph):
        weights, _, _, _ = spectrum_weights(l_par, dk_ph, 6)
        assert np.array_equal(weights, weights.T)
        assert np.all(np.diagonal(weights) > 0.0)
        # positive semidefinite, which `_t_cut`'s bound |W_ij| <= sqrt(W_ii W_jj) needs
        # (to rounding: at L_par 0.13 um W has rank about 10, and its least
        # eigenvalue is -3.5e-16 of its largest)
        eigenvalues = np.linalg.eigvalsh(weights)
        assert eigenvalues[0] >= -1e-14 * eigenvalues[-1]

    def test_cached_and_read_only(self):
        weights = longitudinal_weights(4, 1.0, 2.0)
        assert longitudinal_weights(4, 1.0, 2.0) is weights
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0
