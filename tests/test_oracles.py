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
    _schmidt_axes,
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
        # buffers: 14.47 MB at (0.3, 1), nine arrays of 200,000 doubles (the
        # first draw, and the second's k, cos(theta) and first rejection
        # round), where a new array for every step of the rejection test
        # and of phi peaked at 17.7 MB; one more such array passes 14.5 MB
        b, s = make_beam(0.3), make_spectrum(1.0)
        mc_purity(b, s, seed=7)
        tracemalloc.start()
        try:
            mc_purity(b, s, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.5e6

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
            k, cos_theta, phi = sampler.sample_k_cos_phi(n, rng)
            st = np.sqrt(1.0 - cos_theta**2)
            cart.append(np.stack([k * st * np.cos(phi), k * st * np.sin(phi), k * cos_theta], axis=-1))
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
        kx, qx = _schmidt_axes(b, s)
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
        kx, qx = _schmidt_axes(b, s)
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


def total_wavevector_report(grid, dq_perp):
    """The suite's variance check of q_x + k_x on `grid`."""
    return variance_from_grid("variance_total_wavevector", grid, np.add, dq_perp**2, 0.005)


class TestVarianceFromGrid:
    def test_total_wavevector(self, make_beam, make_spectrum):
        b, s = make_beam(4.19), make_spectrum(0.3)
        rep = total_wavevector_report(momentum_grid(b, s), b.dq_perp)
        assert rep.passed and rep.quantity == "variance_total_wavevector"
        assert rep.tolerance == 0.005 * b.dq_perp**2

    def test_catches_a_wrong_reference(self, make_beam, make_spectrum):
        # the grid's variance of q_x + k_x is dq_perp^2; 1% above it is
        # outside the check's 0.5%
        b, s = make_beam(4.19), make_spectrum(0.3)
        rep = variance_from_grid("v", momentum_grid(b, s), np.add, 1.01 * b.dq_perp**2, 0.005)
        assert not rep.passed

    def test_unnormalized_grid_rejected(self, make_beam, make_spectrum):
        from clpair.distributions import JointGrid

        x = np.linspace(-1.0, 1.0, 33)
        g = JointGrid(x, x, np.ones((33, 33)))
        with pytest.raises(DomainError):
            total_wavevector_report(g, 1.0)

    def test_nan_grid_rejected(self, make_beam, make_spectrum):
        # a nan planted after construction makes the integral nan
        b, s = make_beam(4.19), make_spectrum(0.3)
        g = momentum_grid(b, s)
        g.density[g.density.shape[0] // 2, 0] = np.nan
        with pytest.raises(DomainError):
            total_wavevector_report(g, b.dq_perp)


def suite_points(spectrum, seed):
    """run_suite's 100 points for the finite-difference check at `seed`."""
    return np.random.default_rng(seed).uniform(-spectrum.kmax, spectrum.kmax, (3, 100)).T


class TestFdGradient:
    def test_passes_on_random_points(self, make_spectrum):
        s = make_spectrum(1.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-15.0, 15.0, (50, 3))
        assert fd_gradient_check(s, pts).passed

    def test_error_scales_with_step(self, make_spectrum, monkeypatch):
        # central differences: discrepancy should drop ~4x per step halving
        import clpair.oracles as oracles

        s = make_spectrum(1.0)
        pts = np.array([[3.0, 4.0, 5.0], [-2.0, 7.0, -9.0]])
        errors = []
        for step in (4e-3, 2e-3):
            monkeypatch.setattr(oracles, "_FD_STEP", step)
            rep = fd_gradient_check(s, pts)
            assert rep.metadata["step"] == step * s.dk_ph
            errors.append(rep.oracle_value)
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)

    def test_suite_points(self, make_beam, make_spectrum, monkeypatch):
        # `suite_points` is the draw run_suite hands the check
        import clpair.oracles as oracles

        s, seen = make_spectrum(1.0), []
        exact = oracles.fd_gradient_check
        monkeypatch.setattr(oracles, "fd_gradient_check", lambda sp, pts: seen.append(pts) or exact(sp, pts))
        run_suite(make_beam(0.3), s, seed=7, mc_samples=10_000)
        assert np.array_equal(seen[0], suite_points(s, 7))

    # the step is _FD_STEP dk_ph, so the difference's relative error does
    # not grow as the spectrum narrows; a fixed step of 1e-4 failed 15 and
    # 9 of these 20 seeds at dk_ph 0.03 and 0.05 (worst 1.8e-5 and 1.8e-6)
    @pytest.mark.parametrize("dk", [0.03, 0.05])
    def test_passes_at_narrow_spectra(self, dk, make_spectrum):
        s = make_spectrum(dk)
        worst = max(fd_gradient_check(s, suite_points(s, seed)).oracle_value for seed in range(20))
        assert worst <= 1e-6

    @pytest.mark.parametrize("dk", [2.0, 1.0, 0.05, 30.0])
    def test_catches_a_planted_error_in_one_partial(self, dk, make_spectrum, monkeypatch):
        # a planted defect: dGamma/dk_x off by 1e-5 of itself; the true
        # partials pass the same points
        import clpair.oracles as oracles

        s = make_spectrum(dk)
        pts = suite_points(s, 7)
        assert fd_gradient_check(s, pts).passed
        exact = oracles.gamma_transverse_gradient

        def planted(spectrum, k_vec):
            gam, gx, gy = exact(spectrum, k_vec)
            return gam, gx * (1.0 + 1e-5), gy

        monkeypatch.setattr(oracles, "gamma_transverse_gradient", planted)
        assert not fd_gradient_check(s, pts).passed


class TestIdentities:
    def test_longitudinal_term(self, make_beam, make_spectrum):
        rep = longitudinal_term_identity(make_beam(1.0), make_spectrum(0.7))
        assert rep.passed
        assert rep.value == pytest.approx(rep.oracle_value, rel=1e-6)

    # the check reads only the spectrum, so the three dk_ph columns cover
    # the 12-point panel; on the marginal's own domain the two sides agree
    # to rounding, where a square [-kmax, kmax]^2 on the direct side reads
    # 5.2e-8 at dk_ph 2 and 4.5e-5 at dk_ph 30
    @pytest.mark.parametrize("dk", [0.1, 1.0, 30.0, 0.8, 2.0, 10.0])
    def test_momentum_factorization(self, dk, make_spectrum):
        rep = momentum_factorization_check(make_spectrum(dk))
        assert rep.passed, rep
        assert rep.oracle_value <= 1e-14

    @pytest.mark.parametrize("dk", [2.0, 0.3], ids=["kmin=0", "kmin>0"])
    def test_momentum_factorization_catches_a_planted_marginal_error(self, dk, make_spectrum, monkeypatch):
        # a planted defect: G(k_x) off by 1e-7 of itself, at a point whose
        # window reaches k = 0 and at one whose window does not
        import clpair.oracles as oracles

        exact = oracles.photon_marginal_kx
        monkeypatch.setattr(oracles, "photon_marginal_kx", lambda spectrum, kx: exact(spectrum, kx) * (1.0 + 1e-7))
        assert not momentum_factorization_check(make_spectrum(dk)).passed


class TestSuite:
    def test_all_green_at_regime_b_point(self, make_beam, make_spectrum):
        reports = run_suite(make_beam(3.0), make_spectrum(0.3), mc_samples=100_000)
        # the order is part of the output: `validate` prints the reports in
        # it, so a reorder changes which FAIL line comes first
        assert [r.quantity for r in reports] == [
            "purity_sc_mc",
            "longitudinal_variance_term",
            "momentum_factorization",
            "gamma_partials_fd",
            "variance_total_wavevector",
            "variance_relative_position",
            "schmidt_purity_1d",
        ]
        failed = [r for r in reports if not r.passed]
        assert not failed, failed

    def test_all_green_at_10_2(self, make_beam, make_spectrum):
        # the suite of `validate --seed 7` at (10, 2), the benchmark's
        # session point s1
        reports = run_suite(make_beam(10.0), make_spectrum(2.0), seed=7)
        failed = [r for r in reports if not r.passed]
        assert not failed, failed

    @pytest.mark.parametrize("dq_perp,dk_ph,n_q", [(0.3, 1.0, 1342), (3.0, 0.3, 198), (100.0, 0.1, 111)])
    def test_schmidt_axes(self, make_beam, make_spectrum, dq_perp, dk_ph, n_q):
        # N_KX k points over the spectrum; over 6 electron widths beyond it on
        # each side, 9 q points per width, where schmidt_purity_1d needs 8,
        # so at least 9 * 12 = 108 points
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        kx, qx = _schmidt_axes(b, s)
        assert kx.size == 512 and kx[0] == -s.kmax and kx[-1] == s.kmax
        assert qx[-1] == -qx[0] == 6.0 * dq_perp + s.kmax
        assert qx.size == n_q >= 9.0 * (qx[-1] - qx[0]) / dq_perp >= 108
        assert qx[1] - qx[0] <= dq_perp / 8.0

    def test_schmidt_grid_cap_names_the_size(self, make_beam, make_spectrum, monkeypatch):
        # at (3, 0.3) the Schmidt oracle needs 198 q points; below a cap of
        # that many the suite refuses the grid rather than build it
        import clpair.oracles as oracles

        monkeypatch.setattr(oracles, "_SCHMIDT_MAX_Q", 197)
        with pytest.raises(ResolutionError, match="needs 198 q points"):
            run_suite(make_beam(3.0), make_spectrum(0.3), mc_samples=10_000)
