import json
import math
import tracemalloc

import numpy as np
import pytest

from clpair import DomainError
from clpair.constants import MC_SAMPLES
from clpair.distributions import N_KX, JointGrid, joint_position, momentum_grid
from clpair.errors import ConsistencyError, ResolutionError
from clpair.measures import purity_sc, rel_pos_variance_closed, total_wavevector_variance
from clpair.model import psi_ini_x_sq
from clpair.oracles import (
    _MC_BLOCK,
    OracleReport,
    _pair_blocks,
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

from conftest import SRC, schmidt_gaussian_closed


class TestOracleReport:
    def test_compare_pass_and_fail(self):
        ok = OracleReport.compare("q", 1.0, 1.0005, 1e-3)
        bad = OracleReport.compare("q", 1.0, 1.01, 1e-3)
        assert ok.passed and not bad.passed
        assert ok.discrepancy == pytest.approx(5e-4)

    def test_discrepancy_at_the_tolerance_passes(self):
        assert OracleReport.compare("q", 1.0, 1.5, 0.5).passed


class TestMcPurity:
    def test_agrees_with_quadrature(self, make_beam, make_spectrum):
        rep = mc_purity(make_beam(3.0), make_spectrum(1.0), n=100_000, seed=7)
        assert rep.passed, rep

    def test_sample_floor(self, make_beam, make_spectrum):
        with pytest.raises(DomainError):
            mc_purity(make_beam(3.0), make_spectrum(1.0), n=100)

    @pytest.mark.parametrize("dq,dk", [(1.0, 3.0), (3.0, 0.3), (30.0, 1.0)])
    def test_primary_value_is_purity_sc(self, dq, dk, make_beam, make_spectrum):
        # the sample estimate is compared with the library's own P_sc, at
        # the library's tolerances
        b, s = make_beam(dq), make_spectrum(dk)
        rep = mc_purity(b, s, n=20_000)
        assert rep.value == purity_sc(b, s)

    def test_stderr_scaling(self, make_beam, make_spectrum):
        b, s = make_beam(3.0), make_spectrum(1.0)
        r1 = mc_purity(b, s, n=50_000, seed=3)
        r2 = mc_purity(b, s, n=200_000, seed=3)
        assert r2.metadata["stderr"] == pytest.approx(r1.metadata["stderr"] / 2.0, rel=0.1)

    @pytest.mark.parametrize("n", [200_000, 400_000])
    def test_traced_peak(self, make_beam, make_spectrum, n):
        # the pairs are drawn and reduced in blocks of _MC_BLOCK, in one
        # (8, _MC_BLOCK) buffer of 1 MiB: 1.48 MB at (0.3, 1) at both counts,
        # where the draws of all n pairs took 10.0 MB at 200,000 and 19.9 MB
        # at 400,000
        b, s = make_beam(0.3), make_spectrum(1.0)
        mc_purity(b, s, n=n, seed=7)
        tracemalloc.start()
        try:
            mc_purity(b, s, n=n, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

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
            k, cos_theta, phi = sampler.from_uniforms(*rng.random((4, n)))
            st = np.sqrt(1.0 - cos_theta**2)
            cart.append(np.stack([k * st * np.cos(phi), k * st * np.sin(phi), k * cos_theta], axis=-1))
        k1, k2 = cart
        dperp2 = (k1[:, 0] - k2[:, 0]) ** 2 + (k1[:, 1] - k2[:, 1]) ** 2
        r1, r2 = np.linalg.norm(k1, axis=1), np.linalg.norm(k2, axis=1)
        vals = np.exp(-dperp2 / (4.0 * b.dq_perp**2) - b.c_over_vz**2 * (r1 - r2) ** 2 / (4.0 * b.dq_par**2))
        rep = mc_purity(b, s, n=n, seed=seed)
        assert rep.oracle_value == pytest.approx(float(np.mean(vals)), rel=1e-14)
        # the standard error of the mean, with n - 1 in the variance, and a
        # tolerance of three of them
        assert rep.metadata["stderr"] == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(n), rel=1e-9)
        assert rep.tolerance == 3.0 * rep.metadata["stderr"]


def _concatenated_blocks(n, seed, spectrum):
    """The draws of `_pair_blocks`, each block copied out of the buffer the
    next one reuses, joined into the six arrays of two whole draws."""
    blocks = [[a.copy() for draw in pair for a in draw] for pair in _pair_blocks(GammaSampler(spectrum), n, seed)]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def _sequential_draws(n, seed, spectrum):
    """The draws of `from_uniforms` on the first and on the last four of
    eight consecutive segments of n uniforms of `default_rng(seed)`."""
    sampler, uniforms = GammaSampler(spectrum), np.random.default_rng(seed).random((8, n))
    return [*sampler.from_uniforms(*uniforms[:4]), *sampler.from_uniforms(*uniforms[4:])]


class _LateSegment:
    """A stream whose second block, and every one after it, reads one block
    late: a planted defect."""

    def __init__(self, stream):
        self.stream, self.calls = stream, 0

    def random(self, out):
        self.calls += 1
        if self.calls == 2:
            self.stream.random(out.size)
        return self.stream.random(out=out)


class TestPairBlocks:
    # 200,000 pairs are 12 whole blocks and one of 3,392; 3 blocks and 7
    # pairs end in a block of 7
    @pytest.mark.parametrize("n", [200_000, 3 * _MC_BLOCK + 7])
    def test_blocks_are_the_sequential_draws(self, make_spectrum, n):
        s = make_spectrum(1.0)
        got, want = _concatenated_blocks(n, 11, s), _sequential_draws(n, 11, s)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_catches_a_late_segment(self, make_spectrum, monkeypatch):
        # cos(theta) of the first draw, segment 1, read one block late
        import clpair.oracles as oracles

        exact = oracles._segment_streams
        monkeypatch.setattr(
            oracles, "_segment_streams", lambda seed, n, count: [_LateSegment(g) if j == 1 else g for j, g in enumerate(exact(seed, n, count))]
        )
        s, n = make_spectrum(1.0), 3 * _MC_BLOCK + 7
        got, want = _concatenated_blocks(n, 11, s), _sequential_draws(n, 11, s)
        assert [np.array_equal(a, b) for a, b in zip(got, want)] == [True, False, True, True, True, True]

    @pytest.mark.parametrize("seed", [7, 11, 12])
    @pytest.mark.parametrize("dq_perp,dk_ph", [(0.3, 1.0), (10.0, 2.0)], ids=["s0", "s1"])
    def test_block_sums_match_one_pass(self, make_beam, make_spectrum, dq_perp, dk_ph, seed):
        # the merged block means and squared deviations against np.mean and
        # np.std over the whole sequential draws, each factor formed in
        # mc_purity's order of operations, so only the sums differ: by at
        # most 4.5e-16 and 3.4e-16 relative at these points and seeds
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        k1, c1, p1, k2, c2, p2 = _sequential_draws(MC_SAMPLES, seed, s)
        a1, a2 = np.sqrt(1.0 - c1**2) * k1, np.sqrt(1.0 - c2**2) * k2
        perp = np.sin((p1 - p2) * 0.5) ** 2 * a1 * a2 * 4.0 + (a1 - a2) ** 2
        vals = np.exp(perp / (-4.0 * b.dq_perp**2) - (k1 - k2) ** 2 * b.alpha)
        rep = mc_purity(b, s, seed=seed)
        assert rep.oracle_value == pytest.approx(float(np.mean(vals)), rel=1e-15, abs=0.0)
        assert rep.metadata["stderr"] == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(MC_SAMPLES), rel=1e-12, abs=0.0)


def _suite_kx_and_g(beam, spectrum):
    """The Schmidt oracle's k_x axis and G on it, which `run_suite` takes
    from the momentum grid."""
    grid, g = momentum_grid(beam, spectrum)
    return grid.axis2, g


class TestSchmidt1D:
    @staticmethod
    def _gaussian_density(sig, k):
        return np.exp(-(k**2) / (2.0 * sig**2)) / (math.sqrt(2.0 * math.pi) * sig)

    def test_gaussian_closed_form(self):
        sig, dq = 1.0, 1.0
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.linspace(-16.0, 16.0, 800)
        rep = schmidt_purity_1d(dq, self._gaussian_density(sig, kx), kx, qx)
        assert rep.passed
        closed = schmidt_gaussian_closed(sig, dq)
        assert closed == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        # both sums hold the closed form to rounding on these grids (1.3e-15
        # and 2.2e-16), far inside the report's tolerance
        assert rep.oracle_value == pytest.approx(closed, abs=1e-12)
        assert rep.value == pytest.approx(closed, abs=1e-12)
        assert rep.tolerance == 1e-3

    def test_marginal_on_one_point_is_pure(self):
        # all of G on k = 0: a width of zero needs no k resolution, and the
        # amplitude psi_x(q) sqrt(G(k)) is a product, of purity one
        kx = np.linspace(-8.0, 8.0, 401)
        g = np.where(kx == 0.0, 1.0 / (kx[1] - kx[0]), 0.0)
        rep = schmidt_purity_1d(1.0, g, kx, np.linspace(-16.0, 16.0, 800))
        assert rep.value == pytest.approx(1.0, abs=1e-12) and rep.oracle_value == pytest.approx(1.0, abs=1e-12)

    def test_gram_purity_is_scale_free(self):
        # sum(s^4) / sum(s^2)^2 does not change when the amplitude is scaled;
        # G times 4 doubles the amplitude without rounding, so the purity
        # keeps its bits
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.linspace(-16.0, 16.0, 800)
        g = self._gaussian_density(1.0, kx)
        assert schmidt_purity_1d(1.0, 4.0 * g, kx, qx).oracle_value == schmidt_purity_1d(1.0, g, kx, qx).oracle_value

    @pytest.mark.parametrize("dq_perp,dk", [(0.3, 1.0), (10.0, 2.0)])
    def test_matches_svd(self, dq_perp, dk, make_beam, make_spectrum):
        # the Gram-matrix purity against the singular values of the
        # amplitude, on the grids the oracle suite uses
        b, s = make_beam(dq_perp), make_spectrum(dk)
        kx, g = _suite_kx_and_g(b, s)
        qx = _schmidt_axes(b, s)
        amp = np.sqrt(psi_ini_x_sq(dq_perp, qx[:, None] + kx[None, :]) * g) * math.sqrt((qx[1] - qx[0]) * (kx[1] - kx[0]))
        s2 = np.linalg.svd(amp, compute_uv=False) ** 2
        rep = schmidt_purity_1d(dq_perp, g, kx, qx)
        assert rep.oracle_value == pytest.approx(float(np.sum(s2**2) / np.sum(s2) ** 2), abs=1e-13)

    def test_traced_peak(self, make_beam, make_spectrum):
        # at (0.3, 1) on the suite's grids (1342 x 512) the Gram matrix and
        # one block's, 2 MiB each, beside the block's 128 x 512 amplitude:
        # 4.5 MiB (4.72e6 bytes), where the whole 5.2 MiB amplitude beside
        # one Gram matrix made 7.2 MiB
        b, s = make_beam(0.3), make_spectrum(1.0)
        kx, g = _suite_kx_and_g(b, s)
        qx = _schmidt_axes(b, s)
        tracemalloc.start()
        try:
            schmidt_purity_1d(b.dq_perp, g, kx, qx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qx.size == 1342 and peak <= 5e6

    def test_coarse_q_grid_rejected(self):
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.linspace(-16.0, 16.0, 20)
        with pytest.raises(ResolutionError):
            schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, qx)

    def test_coarse_k_grid_rejected(self):
        kx = np.linspace(-8.0, 8.0, 17)
        qx = np.linspace(-16.0, 16.0, 800)
        with pytest.raises(ResolutionError):
            schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, qx)

    @pytest.mark.parametrize("n_q,accepted", [(16, True), (15, False)])
    def test_q_point_floor(self, n_q, accepted):
        # 16 q points at the finest pitch the contract needs of dq_perp 1
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.arange(n_q) / 8.0
        if accepted:
            schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, qx)
        else:
            with pytest.raises(ResolutionError, match="at least 16 points"):
                schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, qx)

    @pytest.mark.parametrize("pitch,accepted", [(1.0, True), (1.0005, False)])
    def test_q_pitch_bound(self, pitch, accepted):
        # q points dq_perp / 8 apart meet the contract exactly; 0.05% wider do not
        kx = np.linspace(-8.0, 8.0, 400)
        qx = np.arange(800) * (pitch / 8.0)
        if accepted:
            schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, qx)
        else:
            with pytest.raises(ResolutionError, match="q grid"):
                schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, qx)

    @pytest.mark.parametrize("pitch,accepted", [(0.9995, True), (1.0005, False)])
    def test_k_pitch_bound_off_centre(self, pitch, accepted):
        # a marginal of width 0.5 centred at k = 5 on [0, 10]: its width is
        # taken about its own mean, so k points sig_g / 8 apart, 0.05%
        # either side, decide
        kx = np.arange(math.ceil(160.0 / pitch) + 1) * (pitch / 16.0)
        qx = np.linspace(-16.0, 16.0, 800)
        g = self._gaussian_density(0.5, kx - 5.0)
        if accepted:
            schmidt_purity_1d(1.0, g, kx, qx)
        else:
            with pytest.raises(ResolutionError, match="k grid"):
                schmidt_purity_1d(1.0, g, kx, qx)

    @pytest.mark.parametrize("n_k", [2, 9, 16])
    def test_short_k_axis_under_resolves(self, n_k):
        # half the weight at each end gives the widest marginal an axis of
        # n_k points holds, sig_g = (n_k - 1) dk / 2; at 16 points or fewer
        # that is under 8 dk, so the k pitch check refuses every such axis
        kx = np.arange(n_k) / 4.0
        g = np.zeros(n_k)
        g[[0, -1]] = 2.0
        with pytest.raises(ResolutionError, match="k grid under-resolves"):
            schmidt_purity_1d(1.0, g, kx, np.arange(32) / 8.0)

    def test_tiny_grids_rejected(self):
        with pytest.raises(ResolutionError):
            kx = np.linspace(-1, 1, 8)
            schmidt_purity_1d(1.0, self._gaussian_density(1.0, kx), kx, np.linspace(-1, 1, 8))


def total_wavevector_report(grid, dq_perp):
    """The suite's variance check of q_x + k_x on `grid`."""
    return variance_from_grid("variance_total_wavevector", grid, 1.0, dq_perp**2, 0.005)


class TestVarianceFromGrid:
    def test_total_wavevector(self, make_beam, make_spectrum):
        b, s = make_beam(4.19), make_spectrum(0.3)
        rep = total_wavevector_report(momentum_grid(b, s)[0], b.dq_perp)
        assert rep.passed and rep.quantity == "variance_total_wavevector"
        assert rep.tolerance == 0.005 * b.dq_perp**2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_variance_of_the_signed_sum(self, make_beam, make_spectrum, sign):
        # var(a + sign b) = C_aa + 2 sign C_ab + C_bb
        b, s = make_beam(4.19), make_spectrum(0.3)
        grid = momentum_grid(b, s)[0]
        _, c = grid.moments()
        rep = variance_from_grid("v", grid, sign, 1.0, 0.005)
        assert rep.oracle_value == pytest.approx(c[0, 0] + 2.0 * sign * c[0, 1] + c[1, 1], rel=1e-12)

    def test_catches_a_wrong_reference(self, make_beam, make_spectrum):
        # the grid's variance of q_x + k_x is dq_perp^2; 1% above it is
        # outside the check's 0.5%
        b, s = make_beam(4.19), make_spectrum(0.3)
        rep = variance_from_grid("v", momentum_grid(b, s)[0], 1.0, 1.01 * b.dq_perp**2, 0.005)
        assert not rep.passed

    def test_nan_grid_rejected(self, make_beam, make_spectrum):
        # a nan planted after construction makes the variance nan, and the
        # report fails
        b, s = make_beam(4.19), make_spectrum(0.3)
        g, _ = momentum_grid(b, s)
        g.density[g.density.shape[0] // 2, 0] = np.nan
        rep = total_wavevector_report(g, b.dq_perp)
        assert math.isnan(rep.oracle_value) and not rep.passed

    def test_moments_ignore_the_normalization(self, make_beam, make_spectrum):
        # the grid's covariance is divided by its own integral, so a grid
        # scaled by 3 reports the same variance: the suite's grids passed
        # their builders' normalization check already
        b, s = make_beam(4.19), make_spectrum(0.3)
        g, _ = momentum_grid(b, s)
        rep = total_wavevector_report(g, b.dq_perp)
        scaled = total_wavevector_report(JointGrid(g.axis1, g.axis2, 3.0 * g.density), b.dq_perp)
        assert scaled.passed and scaled.oracle_value == pytest.approx(rep.oracle_value, rel=1e-14)


def suite_points(spectrum, seed):
    """run_suite's 100 points for the finite-difference check at `seed`:
    GammaSampler's draws of (k, cos(theta), phi), in Cartesian form."""
    k, cos_theta, phi = GammaSampler(spectrum).from_uniforms(*np.random.default_rng(seed).random((4, 100)))
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    return k[:, None] * np.column_stack((sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta))


class TestFdGradient:
    def test_passes_on_random_points(self, make_spectrum):
        s = make_spectrum(1.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-15.0, 15.0, (50, 3))
        rep = fd_gradient_check(s, pts)
        assert rep.passed and rep.tolerance == 1e-6
        # README's step, 1e-4 min(dk_ph, |k|), at a point further than dk_ph from 0
        assert rep.metadata["max_step"] == 1e-4 * s.dk_ph and rep.metadata["n_points"] == 50

    def test_error_scales_with_step(self, make_spectrum, monkeypatch):
        # central differences: discrepancy should drop ~4x per step halving
        import clpair.oracles as oracles

        s = make_spectrum(1.0)
        pts = np.array([[3.0, 4.0, 5.0], [-2.0, 7.0, -9.0]])
        errors = []
        for step in (4e-3, 2e-3):
            monkeypatch.setattr(oracles, "_FD_STEP", step)
            rep = fd_gradient_check(s, pts)
            # both points lie further than dk_ph from k = 0
            assert rep.metadata["max_step"] == step * s.dk_ph
            errors.append(rep.oracle_value)
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)

    def test_suite_points(self, make_beam, make_spectrum, monkeypatch):
        # `suite_points` is the draw run_suite hands the check, on Gamma's
        # radial window
        import clpair.oracles as oracles

        s, seen = make_spectrum(1.0), []
        exact = oracles.fd_gradient_check
        monkeypatch.setattr(oracles, "fd_gradient_check", lambda sp, pts: seen.append(pts) or exact(sp, pts))
        monkeypatch.setattr(oracles, "MC_SAMPLES", 10_000)
        run_suite(make_beam(0.3), s, seed=7)
        assert np.array_equal(seen[0], suite_points(s, 7))
        k = np.linalg.norm(seen[0], axis=1)
        assert seen[0].shape == (100, 3) and np.all((s.kmin <= k) & (k <= s.kmax))

    # each point's step is _FD_STEP min(dk_ph, |k|), so the difference's
    # relative error grows neither as the spectrum narrows nor near k = 0.
    # Over these 60 seeds the worst reads 9.3e-9 at dk_ph 0.003 and 6.1e-8
    # at 100. A step of _FD_STEP dk_ph alone failed 5 and 7 of them at
    # dk_ph 30 and 100, where the angular factor varies on the scale |k|;
    # the former points, uniform in [-kmax, kmax]^3, failed 2 at dk_ph 0.003.
    @pytest.mark.parametrize("dk", [0.003, 0.01, 0.1, 1.0, 2.0, 10.0, 30.0, 100.0])
    def test_passes_over_seeds_at_every_width(self, dk, make_spectrum):
        s = make_spectrum(dk)
        worst = max(fd_gradient_check(s, suite_points(s, seed)).oracle_value for seed in range(60))
        assert worst <= 1e-6

    @pytest.mark.parametrize("dk", [2.0, 1.0, 0.05, 0.01, 30.0])
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


# the longitudinal identity's coherence lengths (um) and spectral widths
LONGITUDINAL_CASES = [(l_par, dk) for l_par in (0.13, 1.3, 13.0) for dk in (0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)]


class TestIdentities:
    def test_longitudinal_term(self, make_beam, make_spectrum):
        rep = longitudinal_term_identity(make_beam(1.0), make_spectrum(0.7))
        assert rep.passed
        assert rep.value == pytest.approx(rep.oracle_value, rel=1e-6)

    @pytest.mark.parametrize("l_par,dk", LONGITUDINAL_CASES)
    def test_longitudinal_term_to_its_error_model(self, make_beam, make_spectrum, l_par, dk):
        # the discrepancy is the radial window's tail share: 1-3e-15 up to
        # dk_ph 3, 2.2e-14 at 10 and 4.9e-14 at 30 (kmin = 0), against a
        # tolerance of 1e-12
        rep = longitudinal_term_identity(make_beam(1.0, 2.0 * math.pi / l_par), make_spectrum(dk))
        assert rep.tolerance == 1e-12 * abs(rep.value)
        assert rep.passed, rep
        # the window misses both tails, so the sum falls short (by 1.1e-15
        # to 4.9e-14 of the right side over these cases)
        assert rep.oracle_value < rep.value

    @pytest.mark.parametrize("l_par,dk", [(0.13, 0.3), (1.3, 30.0), (13.0, 1.0)])
    def test_longitudinal_term_catches_a_planted_1e_10(self, make_beam, make_spectrum, monkeypatch, l_par, dk):
        # a planted defect: the angular profile off by 1e-10 of itself
        import clpair.oracles as oracles

        exact = oracles.eval_f
        monkeypatch.setattr(oracles, "eval_f", lambda theta: exact(theta) * (1.0 + 1e-10))
        assert not longitudinal_term_identity(make_beam(1.0, 2.0 * math.pi / l_par), make_spectrum(dk)).passed

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


@pytest.fixture()
def later_oracle_calls(monkeypatch):
    """The names of `mc_purity`, `momentum_grid` and `GammaSampler`, once per
    call that `run_suite` makes of them while the test runs."""
    import clpair.oracles as oracles

    calls = []
    for name in ("mc_purity", "momentum_grid", "GammaSampler"):
        exact = getattr(oracles, name)
        monkeypatch.setattr(oracles, name, lambda *a, _name=name, _exact=exact, **kw: calls.append(_name) or _exact(*a, **kw))
    return calls


class TestSuite:
    def test_all_green_at_regime_b_point(self, make_beam, make_spectrum, monkeypatch):
        import clpair.oracles as oracles

        monkeypatch.setattr(oracles, "MC_SAMPLES", 100_000)
        reports = run_suite(make_beam(3.0), make_spectrum(0.3))
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

    def test_grid_reports_at_regime_b_point(self, make_beam, make_spectrum, monkeypatch):
        # var(q_x + k_x) and var(x_el - x_ph) from each grid's covariance,
        # within 0.5% and 2% of their closed forms, and G within 1e-8
        import clpair.oracles as oracles

        monkeypatch.setattr(oracles, "MC_SAMPLES", 10_000)
        b, s = make_beam(3.0), make_spectrum(0.3)
        by = {r.quantity: r for r in run_suite(b, s)}
        (_, cq), (_, cx) = momentum_grid(b, s)[0].moments(), joint_position(b, s)[0].moments()
        total, relative = by["variance_total_wavevector"], by["variance_relative_position"]
        assert total.oracle_value == pytest.approx(cq[0, 0] + 2.0 * cq[0, 1] + cq[1, 1], rel=1e-12)
        assert total.tolerance == 0.005 * total_wavevector_variance(b)
        assert relative.oracle_value == pytest.approx(cx[0, 0] - 2.0 * cx[0, 1] + cx[1, 1], rel=1e-12)
        assert relative.tolerance == 0.02 * rel_pos_variance_closed(b, s)
        assert by["momentum_factorization"].tolerance == 1e-8

    def test_one_marginal_call_per_k_axis(self, make_beam, make_spectrum, monkeypatch, marginal_calls):
        # at s0 G is evaluated once on each k_x axis: the momentum grid's
        # N_KX points, whose G the Schmidt oracle takes too, the position
        # kernel's N_KX / 2, and each of the factorization check's 3 points
        import clpair.oracles as oracles

        monkeypatch.setattr(oracles, "MC_SAMPLES", 10_000)
        run_suite(make_beam(0.3), make_spectrum(1.0))
        assert sorted(marginal_calls) == [1, 1, 1, N_KX // 2, N_KX]

    def test_names_match_the_benchmark_reference(self, make_beam, make_spectrum):
        # the benchmark judges each `validate` report against the frozen
        # perfbench/reference.json, and stops the whole run at a report
        # name it does not hold, so a renamed or added oracle fails here
        # first; read at the session point s0 (0.3, 1), seeds 7, 11, 12
        reference = json.loads((SRC.parent / "perfbench" / "reference.json").read_text())["validate"]
        frozen = [sorted(reference[f"0.3|1.0@{seed}"]["reports"]) for seed in (7, 11, 12)]
        assert frozen[0] == frozen[1] == frozen[2] and len(frozen[0]) == 7
        assert sorted(r.quantity for r in run_suite(make_beam(0.3), make_spectrum(1.0), seed=7)) == frozen[0]

    @pytest.mark.parametrize("seed", [7, 11, 12])
    @pytest.mark.parametrize("dq_perp,dk_ph", [(0.3, 1.0), (10.0, 2.0)], ids=["s0", "s1"])
    def test_all_green_at_the_session_points(self, make_beam, make_spectrum, dq_perp, dk_ph, seed):
        # the suite of `validate --seed` at the benchmark's session points
        # s0 and s1 with each of its seeds: the benchmark's reference has
        # every oracle passing there, so a sampler or oracle change that
        # flips one fails here before it fails the benchmark
        reports = run_suite(make_beam(dq_perp), make_spectrum(dk_ph), seed=seed)
        failed = [r for r in reports if not r.passed]
        assert not failed, failed

    @pytest.mark.parametrize("dq_perp,dk_ph,n_q", [(0.3, 1.0, 1342), (3.0, 0.3, 198), (100.0, 0.1, 111)])
    def test_schmidt_axes(self, make_beam, make_spectrum, dq_perp, dk_ph, n_q):
        # N_KX k points over the spectrum; over 6 electron widths beyond it on
        # each side, 9 q points per width, where schmidt_purity_1d needs 8,
        # so at least 9 * 12 = 108 points
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        kx, qx = momentum_grid(b, s)[0].axis2, _schmidt_axes(b, s)
        assert kx.size == 512 and kx[0] == -s.kmax and kx[-1] == s.kmax
        assert qx[-1] == -qx[0] == 6.0 * dq_perp + s.kmax
        assert qx.size == n_q >= 9.0 * (qx[-1] - qx[0]) / dq_perp >= 108
        assert qx[1] - qx[0] <= dq_perp / 8.0

    def test_schmidt_grid_cap_names_the_size(self, make_beam, make_spectrum, monkeypatch, later_oracle_calls):
        # at (3, 0.3) the Schmidt oracle needs 198 q points of 512 doubles;
        # below a budget of that many the suite refuses the grid rather
        # than build it, before it draws a sample
        import clpair.quadrature as quadrature

        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", 8 * 512 * 197)
        with pytest.raises(ResolutionError, match="^198 Schmidt oracle q points at 4096 bytes each"):
            run_suite(make_beam(3.0), make_spectrum(0.3))
        assert later_oracle_calls == []

    def test_failing_position_grid_comes_first(self, make_beam, make_spectrum, later_oracle_calls):
        # at s2 (1, 10) the position kernel's diagonal check fails; the suite
        # raises before it draws a sample or builds the momentum grid
        with pytest.raises(ConsistencyError, match="position kernel diagonal"):
            run_suite(make_beam(1.0), make_spectrum(10.0))
        assert later_oracle_calls == []
