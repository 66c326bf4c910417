import math
import tracemalloc

import numpy as np
import pytest

from clpair import DomainError
from clpair.distributions import momentum_grid, photon_marginal_kx
from clpair.errors import ResolutionError
from clpair.measures import purity_sc
from clpair.model import QuadratureSpec, psi_ini_x_sq
from clpair.oracles import (
    OracleReport,
    fd_gradient_check,
    longitudinal_term_identity,
    mc_purity,
    momentum_factorization_check,
    run_suite,
    schmidt_purity_1d,
    variance_from_grid,
)
from clpair.quadrature import GammaSampler

from conftest import schmidt_gaussian_closed


class TestOracleReport:
    def test_compare_pass_and_fail(self):
        ok = OracleReport.compare("q", 1.0, 1.0005, 1e-3)
        bad = OracleReport.compare("q", 1.0, 1.01, 1e-3)
        assert ok.passed and not bad.passed
        assert ok.discrepancy == pytest.approx(5e-4)


class TestMcPurity:
    def test_agrees_with_quadrature(self, make_beam, make_spectrum):
        rep = mc_purity(make_beam(3.0), make_spectrum(1.0), n=100_000, seed=7)
        assert rep.passed, rep

    def test_sample_floor(self, make_beam, make_spectrum):
        with pytest.raises(DomainError):
            mc_purity(make_beam(3.0), make_spectrum(1.0), n=100)

    def test_primary_value_uses_given_quadrature(self, make_beam, make_spectrum):
        b, s = make_beam(1.0), make_spectrum(3.0)
        quad = QuadratureSpec(rel_tol=1e-3, abs_tol=5e-4)
        assert mc_purity(b, s, n=20_000, quad=quad).value == purity_sc(b, s, quad)

    def test_stderr_scaling(self, make_beam, make_spectrum):
        b, s = make_beam(3.0), make_spectrum(1.0)
        r1 = mc_purity(b, s, n=50_000, seed=3)
        r2 = mc_purity(b, s, n=200_000, seed=3)
        assert r2.metadata["stderr"] == pytest.approx(r1.metadata["stderr"] / 2.0, rel=0.1)

    def test_traced_peak(self, make_beam, make_spectrum):
        # two draws of the default 200,000 pairs, each sampled into reused
        # buffers: 13.8 MiB at (0.3, 1), where a new array for every step
        # of the theta rejection test and of phi peaked at 16.9 MiB
        b, s = make_beam(0.3), make_spectrum(1.0)
        mc_purity(b, s, seed=7)
        tracemalloc.start()
        try:
            mc_purity(b, s, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * 2**20

    def test_deterministic(self, make_beam, make_spectrum):
        b, s = make_beam(3.0), make_spectrum(1.0)
        assert mc_purity(b, s, n=20_000, seed=5).oracle_value == mc_purity(
            b, s, n=20_000, seed=5
        ).oracle_value


    @pytest.mark.parametrize("dq_perp,dk", [(0.3, 1.0), (10.0, 2.0), (0.1, 30.0)])
    def test_matches_cartesian_estimate(self, dq_perp, dk, make_beam, make_spectrum):
        # the estimate from the spherical draws against the Cartesian form
        # of the same pairs: |k| as a vector norm, the transverse distance
        # from the x and y components
        b, s = make_beam(dq_perp), make_spectrum(dk)
        n, seed = 20_000, 7
        sampler = GammaSampler(s)
        rng = np.random.default_rng(seed)
        cart = []
        for _ in range(2):
            k, theta, phi = sampler.sample_spherical(n, rng)
            st = np.sin(theta)
            cart.append(np.stack([k * st * np.cos(phi), k * st * np.sin(phi), k * np.cos(theta)], axis=-1))
        k1, k2 = cart
        dperp2 = (k1[:, 0] - k2[:, 0]) ** 2 + (k1[:, 1] - k2[:, 1]) ** 2
        r1, r2 = np.linalg.norm(k1, axis=1), np.linalg.norm(k2, axis=1)
        vals = np.exp(-dperp2 / (4.0 * b.dq_perp**2) - b.c_over_vz**2 * (r1 - r2) ** 2 / (4.0 * b.dq_par**2))
        rep = mc_purity(b, s, n=n, seed=seed)
        assert rep.oracle_value == pytest.approx(float(np.mean(vals)), rel=1e-14)


class TestSchmidt1D:
    @staticmethod
    def _gaussian_density(sig):
        return lambda k: np.exp(-(k**2) / (2.0 * sig**2)) / (math.sqrt(2.0 * math.pi) * sig)

    def test_gaussian_closed_form(self):
        sig, dq = 1.0, 1.0
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.linspace(-16.0, 16.0, 800)
        rep = schmidt_purity_1d(dq, self._gaussian_density(sig), kx, qx)
        assert rep.passed
        closed = schmidt_gaussian_closed(sig, dq)
        assert closed == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert rep.oracle_value == pytest.approx(closed, abs=1e-3)
        assert rep.value == pytest.approx(closed, abs=1e-3)

    @pytest.mark.parametrize("dq_perp,dk", [(0.3, 1.0), (10.0, 2.0)])
    def test_matches_svd(self, dq_perp, dk, make_beam, make_spectrum):
        # the Gram-matrix purity against the singular values of the
        # amplitude, on the grids the oracle suite uses
        b, s = make_beam(dq_perp), make_spectrum(dk)
        kmax = s.kmax
        kx = np.linspace(-kmax, kmax, 512)
        span = 6.0 * dq_perp + kmax
        qx = np.linspace(-span, span, int(np.clip(math.ceil(2.0 * span / (dq_perp / 9.0)), 64, 3000)))
        g = photon_marginal_kx(s, kx)
        amp = np.sqrt(psi_ini_x_sq(dq_perp, qx[:, None] + kx[None, :]) * g) * math.sqrt((qx[1] - qx[0]) * (kx[1] - kx[0]))
        s2 = np.linalg.svd(amp, compute_uv=False) ** 2
        rep = schmidt_purity_1d(dq_perp, lambda k: photon_marginal_kx(s, k), kx, qx)
        assert rep.oracle_value == pytest.approx(float(np.sum(s2**2) / np.sum(s2) ** 2), abs=1e-13)

    def test_traced_peak(self, make_beam, make_spectrum):
        # at (0.3, 1) on the suite's grids (1342 x 512) the amplitude is one
        # 5.2 MiB buffer, dropped before the n_k x n_k overlap is built:
        # 7.3 MiB, where the amplitude's own temporary and the overlap's
        # made 13.3 MiB
        b, s = make_beam(0.3), make_spectrum(1.0)
        kmax = s.kmax
        kx = np.linspace(-kmax, kmax, 512)
        span = 6.0 * b.dq_perp + kmax
        qx = np.linspace(-span, span, int(np.clip(math.ceil(2.0 * span / (b.dq_perp / 9.0)), 64, 3000)))
        tracemalloc.start()
        try:
            schmidt_purity_1d(b.dq_perp, lambda k: photon_marginal_kx(s, k), kx, qx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qx.size == 1342 and peak <= 9 * 2**20

    def test_coarse_q_grid_rejected(self):
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.linspace(-16.0, 16.0, 20)
        with pytest.raises(ResolutionError):
            schmidt_purity_1d(1.0, self._gaussian_density(1.0), kx, qx)

    def test_coarse_k_grid_rejected(self):
        kx = np.linspace(-8.0, 8.0, 17)
        qx = np.linspace(-16.0, 16.0, 800)
        with pytest.raises(ResolutionError):
            schmidt_purity_1d(1.0, self._gaussian_density(1.0), kx, qx)

    def test_tiny_grids_rejected(self):
        with pytest.raises(ResolutionError):
            schmidt_purity_1d(1.0, self._gaussian_density(1.0), np.linspace(-1, 1, 8), np.linspace(-1, 1, 8))


class TestVarianceFromGrid:
    def test_total_wavevector(self, make_beam, make_spectrum):
        b, s = make_beam(4.19), make_spectrum(0.3)
        rep = variance_from_grid(momentum_grid(b, s), "total_wavevector", b)
        assert rep.passed

    def test_unknown_target(self, make_beam, make_spectrum):
        b, s = make_beam(4.19), make_spectrum(0.3)
        with pytest.raises(DomainError):
            variance_from_grid(momentum_grid(b, s), "skew", b)

    def test_missing_spectrum(self, make_beam, make_spectrum):
        b, s = make_beam(4.19), make_spectrum(0.3)
        with pytest.raises(DomainError):
            variance_from_grid(momentum_grid(b, s), "relative_position", b)

    def test_unnormalized_grid_rejected(self, make_beam, make_spectrum):
        from clpair.distributions import JointGrid

        b = make_beam(1.0)
        x = np.linspace(-1.0, 1.0, 33)
        g = JointGrid(x, x, np.ones((33, 33)))
        with pytest.raises(DomainError):
            variance_from_grid(g, "total_wavevector", b)

    def test_nan_grid_rejected(self, make_beam, make_spectrum):
        # a nan planted after construction makes the integral nan
        b, s = make_beam(4.19), make_spectrum(0.3)
        g = momentum_grid(b, s)
        g.density[g.density.shape[0] // 2, 0] = np.nan
        with pytest.raises(DomainError):
            variance_from_grid(g, "total_wavevector", b)


class TestFdGradient:
    def test_passes_on_random_points(self, make_spectrum):
        s = make_spectrum(1.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-15.0, 15.0, (50, 3))
        assert fd_gradient_check(s, pts).passed

    def test_error_scales_with_step(self, make_spectrum):
        # central differences: discrepancy should drop ~4x per step halving
        s = make_spectrum(1.0)
        pts = np.array([[3.0, 4.0, 5.0], [-2.0, 7.0, -9.0]])
        e1 = fd_gradient_check(s, pts, step=4e-3).oracle_value
        e2 = fd_gradient_check(s, pts, step=2e-3).oracle_value
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_large_step_rejected(self, make_spectrum):
        with pytest.raises(DomainError):
            fd_gradient_check(make_spectrum(0.3), np.array([[1.0, 2.0, 3.0]]), step=0.1)


class TestIdentities:
    def test_longitudinal_term(self, make_beam, make_spectrum):
        rep = longitudinal_term_identity(make_beam(1.0), make_spectrum(0.7))
        assert rep.passed
        assert rep.value == pytest.approx(rep.oracle_value, rel=1e-6)

    def test_momentum_factorization(self, make_beam, make_spectrum):
        rep = momentum_factorization_check(make_beam(2.0), make_spectrum(0.8))
        assert rep.passed


class TestSuite:
    def test_all_green_at_regime_b_point(self, make_beam, make_spectrum):
        reports = run_suite(make_beam(3.0), make_spectrum(0.3), mc_samples=100_000)
        names = {r.quantity for r in reports}
        assert {
            "purity_sc_mc",
            "longitudinal_variance_term",
            "momentum_factorization",
            "gamma_partials_fd",
            "variance_total_wavevector",
            "variance_relative_position",
            "schmidt_purity_1d",
        } <= names
        failed = [r for r in reports if not r.passed]
        assert not failed, failed
