import hashlib
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate
from scipy.signal import argrelextrema

from clpair import DomainError
from clpair.cli import load_config, main
from clpair.constants import ANGULAR_NORM, NORMALIZATION_TOL
import clpair.distributions as distributions
import clpair.quadrature as quadrature
from clpair.distributions import (
    N_KX,
    JointGrid,
    _check_normalized,
    _position_kernel,
    _rho_rule,
    _t_at_lags,
    joint_position,
    momentum_grid,
    photon_marginal_kx,
)
from clpair.errors import ConsistencyError, ResolutionError
from clpair.measures import rel_pos_variance_closed
from clpair.model import eval_g, psi_ini_x_sq

from conftest import DQ_PAR, readme_section
from reference_kernel import position_kernel_full_band, uniform_rho_rule


class TestJointGrid:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            JointGrid(np.arange(3.0), np.arange(4.0), np.zeros((4, 3)))

    @pytest.mark.parametrize("axis", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]], ids=["decreasing", "repeated"])
    def test_non_monotone_axis(self, axis):
        with pytest.raises(DomainError):
            JointGrid(np.array(axis), np.arange(3.0), np.zeros((3, 3)))

    def test_negative_density(self):
        d = np.zeros((3, 3))
        d[1, 1] = -1.0
        with pytest.raises(DomainError):
            JointGrid(np.arange(3.0), np.arange(3.0), d)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "where,at",
        [("axis1", -1), ("axis2", -1), ("axis1", 0), ("axis2", 0), ("density", (1, 1))],
        ids=["axis1", "axis2", "axis1-first", "axis2-first", "density"],
    )
    def test_non_finite_rejected(self, where, at, bad):
        # a planted value at either end of an axis, or inside the density;
        # a nan fails every comparison, so no ordering test catches it, and
        # -inf first keeps the steps increasing
        arrays = {"axis1": np.arange(3.0), "axis2": np.arange(3.0), "density": np.ones((3, 3))}
        arrays[where][at] = bad
        with pytest.raises(DomainError):
            JointGrid(**arrays)

    def test_empty_axis_rejected(self):
        with pytest.raises(DomainError):
            JointGrid(np.arange(0.0), np.arange(3.0), np.zeros((0, 3)))

    def test_normalization_check_rejects_nan(self):
        # a nan planted after construction makes the integral nan
        x = np.linspace(0.0, 1.0, 5)
        g = JointGrid(x, x, np.ones((5, 5)))
        g.density[2, 2] = math.nan
        with pytest.raises(ConsistencyError):
            _check_normalized(g, "planted grid")

    def test_integral_and_moments(self):
        # separable bilinear density on the unit square
        x = np.linspace(0.0, 1.0, 201)
        d = 4.0 * np.outer(x, x)
        g = JointGrid(x, x, d)
        assert g.integral() == pytest.approx(1.0, abs=1e-4)
        # the mean and variance of a + b, the sums of the mean's and the
        # covariance's entries
        mean, cov = g.moments()
        assert mean.sum() == pytest.approx(4.0 / 3.0, abs=1e-3)
        assert cov.sum() == pytest.approx(2.0 / 18.0, abs=1e-3)

    def test_moments_of_an_unnormalized_grid(self):
        # the moments are normalized by the grid's own integral: the
        # density 4 a b on the unit square, three times over, has means
        # 2/3 and variances 1/18, and the axes are independent
        x = np.linspace(0.0, 1.0, 201)
        mean, cov = JointGrid(x, x, 12.0 * np.outer(x, x)).moments()
        np.testing.assert_allclose(mean, [2.0 / 3.0, 2.0 / 3.0], atol=1e-4)
        np.testing.assert_allclose(cov, [[1.0 / 18.0, 0.0], [0.0, 1.0 / 18.0]], atol=1e-4)

    @pytest.mark.parametrize("total,refused", [(0.9901, False), (1.0099, False), (0.9899, True), (1.0101, True)])
    def test_normalization_window(self, total, refused):
        # a grid is admitted when its integral is within NORMALIZATION_TOL
        # of one, on either side
        x = np.linspace(0.0, 1.0, 5)
        grid = JointGrid(x, x, np.full((5, 5), total))
        if refused:
            with pytest.raises(ConsistencyError):
                _check_normalized(grid, "planted grid")
        else:
            assert _check_normalized(grid, "planted grid") is grid


class TestPhotonMarginal:
    def test_normalized(self, make_spectrum):
        s = make_spectrum(0.3)
        value, _ = integrate.quad(lambda kx: photon_marginal_kx(s, kx)[0], -20.0, 20.0, points=[0.0], epsabs=1e-10, limit=200)
        assert value == pytest.approx(1.0, abs=1e-8)

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


class TestMomentumGrid:
    def test_normalized(self, make_beam, make_spectrum):
        g, _ = momentum_grid(make_beam(4.19), make_spectrum(0.3))
        assert abs(g.integral() - 1.0) <= 0.01

    def test_total_momentum_variance(self, make_beam, make_spectrum):
        b = make_beam(4.19)
        g, _ = momentum_grid(b, make_spectrum(0.3))
        _, cov = g.moments()
        assert cov.sum() == pytest.approx(b.dq_perp**2, rel=5e-3)

    def test_q_axis_rule(self, make_beam, make_spectrum):
        # the q axis spans kmax + 6 dq_perp each side at 8 points per
        # dq_perp, 3387 points at (0.1, 1), and is capped at 4001 points,
        # which keeps the (0.1, 30) grid under 16 MiB
        b, s = make_beam(0.1), make_spectrum(1.0)
        q = momentum_grid(b, s)[0].axis1
        assert q[-1] == -q[0] == s.kmax + 6.0 * b.dq_perp
        assert q.size == 3387
        capped = momentum_grid(b, make_spectrum(30.0))[0].density
        assert capped.shape == (4001, N_KX) and capped.nbytes < 16 * 2**20

    def test_parity(self, make_beam, make_spectrum):
        g, _ = momentum_grid(make_beam(2.0), make_spectrum(0.5))
        np.testing.assert_allclose(g.density, g.density[::-1, ::-1], rtol=1e-10, atol=1e-14)

    def test_matches_pointwise_product(self, make_beam, make_spectrum):
        b, s = make_beam(1.0), make_spectrum(1.0)
        g, marginal = momentum_grid(b, s)
        # the G returned is the marginal on the grid's k axis, bit for bit
        assert np.array_equal(marginal, photon_marginal_kx(s, g.axis2))
        i, j = 10, 100
        assert g.density[i, j] == pytest.approx(
            float(psi_ini_x_sq(b.dq_perp, g.axis1[i] + g.axis2[j])) * photon_marginal_kx(s, g.axis2[j]).item(), rel=1e-12
        )


DIST_INI = """\
[beam]
kinetic_energy_kev = 200.0
l_par_um = 1.3
dq_perp_um_inv = {dq_perp!r}

[spectrum]
lambda_c_um = 0.5
dk_ph_um_inv = {dk_ph!r}
"""


def write_dist_config(tmp_path, dq_perp, dk_ph, extra="") -> str:
    path = tmp_path / "dist.ini"
    path.write_text(DIST_INI.format(dq_perp=dq_perp, dk_ph=dk_ph) + extra)
    return str(path)


def run_dist(cfg: str, out) -> None:
    main(["dist", "--config", cfg, "--out", str(out)], standalone_mode=False)


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn runs, above what was allocated before;
    numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGridMemory:
    """The grid path holds about one grid-sized buffer at a time, at the
    benchmark's narrow-spectrum dist point (a 962 x 512 momentum grid)."""

    @pytest.fixture(scope="class")
    def beam_spectrum_grid(self, make_beam, make_spectrum):
        b, s = make_beam(0.263474), make_spectrum(0.210945)
        return b, s, momentum_grid(b, s)[0]

    def test_momentum_grid_peak(self, beam_spectrum_grid):
        # the density and one temporary of its size, the sum q_x + k_x
        b, s, g = beam_spectrum_grid
        assert _traced_peak(lambda: momentum_grid(b, s)) <= 2.2 * g.density.nbytes

    def test_integral_peak(self, beam_spectrum_grid):
        _, _, g = beam_spectrum_grid
        assert _traced_peak(g.integral) <= 0.25 * g.density.nbytes

    def test_moments_peak(self, beam_spectrum_grid):
        _, _, g = beam_spectrum_grid
        assert _traced_peak(g.moments) <= 0.25 * g.density.nbytes

    def test_dist_peak(self, tmp_path):
        # dist drops each grid before it computes and writes its factor:
        # about the momentum grid alone, 3.76 MiB. G's temporaries on top of
        # the held grid, or the grid's CSV text, would pass 4 MiB
        cfg = write_dist_config(tmp_path, 0.263474, 0.210945)
        assert _traced_peak(lambda: run_dist(cfg, tmp_path / "o")) <= 4 * 2**20

    @pytest.mark.parametrize("defect", ["marginal-beside-grid", "position-grid-kept"])
    def test_dist_peak_catches_a_held_grid(self, tmp_path, monkeypatch, defect):
        # the bound above fails when G is computed while the momentum grid
        # is held (7.3 MiB), or when the position grid outlives its factor
        # (4.5 MiB)
        if defect == "marginal-beside-grid":
            build = distributions.momentum_grid

            def held(beam, spectrum):
                grid, g = build(beam, spectrum)
                distributions.photon_marginal_kx(spectrum, grid.axis2)
                return grid, g

            monkeypatch.setattr(distributions, "momentum_grid", held)
        else:
            build, kept = distributions.joint_position, []

            def held(beam, spectrum):
                kept.append(build(beam, spectrum))
                return kept[-1]

            monkeypatch.setattr(distributions, "joint_position", held)
        cfg = write_dist_config(tmp_path, 0.263474, 0.210945)
        assert _traced_peak(lambda: run_dist(cfg, tmp_path / "o")) > 4 * 2**20

    # var(q_x + k_x), the sum of the covariance's entries, cancels
    # C_11 + C_22 against 2 |C_12| and rounds by about eps (C_11 + C_22),
    # 0.93 of that at (0.1, 30), where q_x's axis is clipped at 4001
    # points and C_11 + C_22 is 1.9e5 times the variance, so the model
    # gives 4.3e-11 there (measured 4.0e-11) and the bound is 2e-10;
    # at g0, where it is 1302 times, the bound is 1e-12
    @pytest.mark.parametrize("dq_perp,dk_ph,rel", [(0.263474, 0.210945, 1e-12), (0.1, 30.0, 2e-10)], ids=["g0", "0.1-30"])
    def test_moments_match_full_grid_trapezoid(self, make_beam, make_spectrum, dq_perp, dk_ph, rel):
        # the covariance against the full-grid trapezoid of (q_x + k_x)^2,
        # which has no such cancellation
        g, _ = momentum_grid(make_beam(dq_perp), make_spectrum(dk_ph))
        v = g.axis1[:, None] + g.axis2[None, :]

        def trap(f):
            return float(np.trapezoid(np.trapezoid(f, g.axis2, axis=1), g.axis1))

        norm = trap(g.density)
        mean = trap(g.density * v) / norm
        var = trap(g.density * v**2) / norm - mean**2
        got_mean, cov = g.moments()
        assert g.integral() == pytest.approx(norm, rel=1e-13)
        assert got_mean.sum() == pytest.approx(mean, rel=1e-10, abs=1e-13)
        assert cov.sum() == pytest.approx(var, rel=rel)


@pytest.mark.parametrize("l_perp", [20.0, 1.5, 0.2], ids=["wide", "mid", "narrow"], scope="class")
class TestJointPosition:
    # one joint_position call (about 3 s) per width, shared by the class's tests
    @pytest.fixture(scope="class")
    def position_and_params(self, l_perp, make_beam, make_spectrum):
        b = make_beam(2.0 * math.pi / l_perp)
        s = make_spectrum(0.3)
        return b, s, joint_position(b, s)

    @pytest.fixture(scope="class")
    def grid_and_params(self, position_and_params):
        b, s, (g, _, _) = position_and_params
        return b, s, g

    def test_normalized(self, grid_and_params):
        _, _, g = grid_and_params
        assert g.integral() == pytest.approx(1.0, abs=0.01)

    def test_relative_position_variance(self, grid_and_params):
        b, s, g = grid_and_params
        # var(x_el - x_ph) = C_11 - 2 C_12 + C_22
        mean, cov = g.moments()
        assert mean[0] - mean[1] == pytest.approx(0.0, abs=1e-8)
        assert cov[0, 0] - 2.0 * cov[0, 1] + cov[1, 1] == pytest.approx(rel_pos_variance_closed(b, s), rel=2e-3)

    def test_electron_marginal_width(self, grid_and_params):
        b, _, g = grid_and_params
        mean, cov = g.moments()
        assert mean[0] == pytest.approx(0.0, abs=1e-10)
        assert cov[0, 0] == pytest.approx(1.0 / (4.0 * b.dq_perp**2), rel=2e-3)

    def test_parity(self, grid_and_params):
        _, _, g = grid_and_params
        np.testing.assert_allclose(
            g.density, g.density[::-1, ::-1], rtol=1e-8, atol=1e-12
        )

    def test_exact_parity(self, grid_and_params):
        # the k_x grid is an exact mirror, so M and T are exactly even
        _, _, g = grid_and_params
        assert np.array_equal(g.axis1, -g.axis1[::-1])
        assert np.array_equal(g.axis2, -g.axis2[::-1])
        assert np.array_equal(g.density, g.density[::-1, ::-1])

    def test_factor_lags_are_the_grid_separations(self, position_and_params):
        # s starts at 0, ascends on the lattice of pitch s[1], and holds
        # each distinct |x_el - x_ph| of the grid once
        _, _, (g, s, _) = position_and_params
        assert s[0] == 0.0 and np.all(np.diff(s) > 0.0)
        steps = s / s[1]
        np.testing.assert_allclose(steps, np.rint(steps), rtol=0.0, atol=1e-9)
        read = np.unique(np.rint(np.abs(np.subtract.outer(g.axis1, g.axis2)) / s[1]))
        assert np.array_equal(read, np.rint(steps))

    def test_grid_is_envelope_times_factor(self, position_and_params):
        # the returned T is the array the envelope multiplies, bit for bit
        b, _, (g, s, t) = position_and_params
        rank = np.searchsorted(np.rint(s / s[1]), np.rint(np.abs(np.subtract.outer(g.axis1, g.axis2)) / s[1]))
        envelope = (b.dq_perp / math.sqrt(2.0 * math.pi**3)) * np.exp(-2.0 * b.dq_perp**2 * g.axis1[:, None] ** 2)
        assert np.array_equal(g.density, np.maximum(envelope * t[rank], 0.0))

    def test_factor_peaks_at_zero_lag(self, position_and_params):
        # M has non-negative entries and is a positive semidefinite kernel,
        # so 0 <= T(s) <= T(0) up to rounding
        _, _, (_, _, t) = position_and_params
        assert np.argmax(t) == 0
        assert np.min(t) >= -1e-12 * t[0]

    def test_factor_integrates_to_two_pi(self, position_and_params):
        # the integral of cos((k_p - k_q) s) over s is 2 pi delta(k_p - k_q),
        # so the integral of T is 2 pi times that of G, which is 1
        _, _, (_, s, t) = position_and_params
        assert float((t[1:] + t[:-1]) @ np.diff(s)) == pytest.approx(2.0 * math.pi, rel=0.01)


def half_axis(spectrum, n_kx=512):
    """Positive half of joint_position's midpoint k_x grid."""
    return (np.arange(n_kx // 2) + 0.5) * (2.0 * spectrum.kmax / n_kx)


def kernel_entry_quad(beam, spectrum, a, b):
    """M(a, b) by nested scipy quad over rho in [lo(a), hi(b)] and beta,
    with a <= b taken as |k_x| values."""
    kmin, kmax = spectrum.kmin, spectrum.kmax
    a, b = sorted((abs(a), abs(b)))
    lo = math.sqrt(max(0.0, kmin**2 - a**2))
    hi = math.sqrt(max(lo**2, kmax**2 - b**2))
    alpha = beam.c_over_vz**2 / (8.0 * beam.dq_par**2)

    def radial(rho):
        k, kp = math.hypot(a, rho), math.hypot(b, rho)
        ang = integrate.quad(
            lambda beta: math.sin(beta) ** 2
            * math.sqrt((1.0 - (rho * math.sin(beta) / k) ** 2) * (1.0 - (rho * math.sin(beta) / kp) ** 2)),
            0.0, math.pi / 2.0, epsabs=0.0, epsrel=1e-12,
        )[0]
        g = float(eval_g(spectrum, k) * eval_g(spectrum, kp))
        return 4.0 * ANGULAR_NORM * rho**3 / (k * kp) * math.sqrt(g) * math.exp(-alpha * (k - kp) ** 2) * ang

    # break at the radii where k or k' crosses the spectral peak
    peaks = [math.sqrt(spectrum.k_c**2 - x**2) for x in (a, b) if x < spectrum.k_c]
    pts = [p for p in peaks if lo < p < hi] or None
    return integrate.quad(radial, lo, hi, points=pts, epsabs=0.0, epsrel=1e-11, limit=200)[0]


class TestPositionKernel:
    def test_exactly_symmetric(self, make_beam, make_spectrum):
        s = make_spectrum(0.3)
        h = _position_kernel(make_beam(1.0), s, half_axis(s))
        assert h.shape == (256, 256)
        # the upper triangle is summed and then mirrored, so h is
        # symmetric bit for bit
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize(
        "dk_ph",
        [0.1, 0.5, 1.6, 2.0, 2.5, 3.0, 3.25, 3.29, 4.0, 4.5, 4.68,
         pytest.param(4.69, marks=pytest.mark.xfail(raises=ConsistencyError, strict=True))],
    )
    def test_diagonal_check_envelope(self, make_beam, make_spectrum, dk_ph):
        # at dq_perp = 1 the diagonal check passes up to dk_ph = 4.68 and
        # raises from 4.69: with kmin = 0 the quadrature near |k_x| (the
        # marginal's 8 x 16-node rule, which misses the pole at k = 0)
        # leaves the diagonal 7.2e-9 of max G off at 4.5 and 1.6e-8 at 5.0,
        # against the check's 1e-8. An under-sized rho grid fails below
        # 4.69; a fix of the kmin = 0 quadrature must remove the xfail.
        s = make_spectrum(dk_ph)
        _position_kernel(make_beam(1.0), s, half_axis(s))


def assert_matches_full_band(h, ref):
    """h is exactly symmetric and within 1e-15 max|h| of the full-band sum."""
    assert np.array_equal(h, h.T)
    assert float(np.max(np.abs(h - ref))) <= 1e-15 * float(np.max(np.abs(ref)))


# h depends on dk_ph, not on dq_perp. At dk_ph 0.3, 0.1 and 0.03 summing
# each node group in one reduction differs from summing in node order by
# rounding (up to 1.4e-16 of max|h|, at 0.03), so the bound is checked
# where the order of summation shows
KERNEL_POINTS = pytest.mark.parametrize(
    "dq_perp,dk_ph",
    [(0.263474, 0.210945), (1.0, 0.3), (10.0, 2.0), (100.0, 0.1), (1.0, 3.29), (1.0, 0.03)],
    ids=["g0", "1-0.3", "10-2-kmin0", "100-0.1", "1-3.29", "1-0.03"],
)


class TestPositionKernelBlocks:
    @KERNEL_POINTS
    def test_matches_full_band(self, make_beam, make_spectrum, dq_perp, dk_ph):
        # the upper triangle in row blocks, mirrored, against every node's
        # whole band summed
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        ax = half_axis(s)
        assert_matches_full_band(_position_kernel(b, s, ax), position_kernel_full_band(b, s, ax))

    def test_catches_a_missing_mirror(self, make_beam, make_spectrum, monkeypatch):
        # a planted defect: without the mirror the lower triangle holds only
        # the diagonal blocks' partial sums
        b, s = make_beam(1.0), make_spectrum(0.3)
        ax = half_axis(s)
        monkeypatch.setattr(distributions, "_mirror_upper", lambda h: None)
        with pytest.raises(AssertionError):
            assert_matches_full_band(_position_kernel(b, s, ax), position_kernel_full_band(b, s, ax))

    def test_pinned_at_g0(self, make_beam, make_spectrum):
        # sha256 of h at g0, taken with numpy 2.4 and its OpenBLAS on
        # x86-64: a change to the kernel's arithmetic or to the order of its
        # sums moves h, and with it every position grid
        b, s = make_beam(0.263474), make_spectrum(0.210945)
        h = _position_kernel(b, s, half_axis(s))
        assert hashlib.sha256(h.tobytes()).hexdigest() == "abc90b8f3113811c767cf599cb93aa269b550f9b984c268793999a5537b1281b"

    @pytest.mark.parametrize("dq_perp,dk_ph", [(0.3, 1.0), (0.263474, 0.210945)], ids=["s0", "g0"])
    def test_traced_peak(self, make_beam, make_spectrum, dq_perp, dk_ph):
        # 2.27 MiB at s0 and 1.77 MiB at g0 with batches of 8 nodes by 32
        # rows (2.28 and 2.30 when each node summed its whole band): one
        # (node, 256) array for all 704 of g0's radial nodes would add
        # 1.4 MiB
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        assert _traced_peak(lambda: _position_kernel(b, s, half_axis(s))) <= 2.5 * 2**20


class TestKernelDiagonalCheck:
    """One walk over the radial nodes builds h, and the diagonal of that h
    is checked against the photon marginal to 1e-8 of its peak; at
    `KERNEL_POINTS` they agree within 2e-14 of it, and within 3.4e-10 at
    (1, 3.29)."""

    def test_one_walk_over_the_nodes(self, make_beam, make_spectrum, monkeypatch):
        walks = []
        nodes = distributions._kernel_nodes

        def counted(spectrum, ax):
            walks.append(1)
            return nodes(spectrum, ax)

        monkeypatch.setattr(distributions, "_kernel_nodes", counted)
        s = make_spectrum(0.210945)
        _position_kernel(make_beam(0.263474), s, half_axis(s))
        assert len(walks) == 1

    # the check fails from dk_ph = 4.683 on, at any dq_perp
    @pytest.mark.parametrize("dq_perp,dk_ph", [(1.0, 5.0), (31.2763, 9.61536)], ids=["1-5", "g1"])
    def test_failing_points_raise(self, make_beam, make_spectrum, dq_perp, dk_ph):
        s = make_spectrum(dk_ph)
        with pytest.raises(ConsistencyError, match="position kernel diagonal disagrees with the photon marginal"):
            _position_kernel(make_beam(dq_perp), s, half_axis(s))

    @pytest.mark.parametrize("scale,raises", [(1.0 + 5e-9, False), (1.0 + 2e-8, True), (1.0 + 1e-7, True)])
    @pytest.mark.parametrize("dq_perp,dk_ph", [(0.263474, 0.210945), (10.0, 2.0)], ids=["g0", "10-2-kmin0"])
    def test_checks_the_returned_diagonal(self, make_beam, make_spectrum, monkeypatch, dq_perp, dk_ph, scale, raises):
        # a planted defect after the block pass: a mirror that also scales
        # the diagonal of h; the check reads that diagonal, to 1e-8 of the
        # marginal's peak
        mirror = distributions._mirror_upper

        def scaled(h):
            mirror(h)
            h[np.diag_indices_from(h)] *= scale

        monkeypatch.setattr(distributions, "_mirror_upper", scaled)
        s = make_spectrum(dk_ph)
        if raises:
            with pytest.raises(ConsistencyError, match="position kernel diagonal disagrees with the photon marginal"):
                _position_kernel(make_beam(dq_perp), s, half_axis(s))
        else:
            _position_kernel(make_beam(dq_perp), s, half_axis(s))

    def test_catches_a_marginal_off_by_1e_7(self, make_beam, make_spectrum, monkeypatch):
        # a planted defect: the check compares to 1e-8 of the marginal's peak
        exact = distributions.photon_marginal_kx
        monkeypatch.setattr(distributions, "photon_marginal_kx", lambda s, kx: exact(s, kx) * (1.0 + 1e-7))
        s = make_spectrum(0.210945)
        with pytest.raises(ConsistencyError):
            _position_kernel(make_beam(0.263474), s, half_axis(s))


def rho_nodes(spectrum) -> int:
    """Radial nodes `_rho_rule` lays out for the kernel on `half_axis`."""
    return _rho_rule(spectrum, math.sqrt(spectrum.kmax**2 - half_axis(spectrum)[0] ** 2))[0].size


class TestRhoRule:
    # the equal panels of dk_ph that the rule replaced laid out 1088, 800,
    # 2144 and 240 nodes; at kmin = 0 the rule is those equal panels
    @pytest.mark.parametrize(
        "dk_ph,nodes", [(0.210945, 704), (0.3, 560), (0.1, 1232), (2.0, 240)], ids=["g0", "3-0.3", "100-0.1", "s1"]
    )
    def test_node_counts(self, make_spectrum, dk_ph, nodes):
        assert rho_nodes(make_spectrum(dk_ph)) == nodes

    def test_panels_obey_the_width_bound(self, make_spectrum):
        # every panel is no wider than dk_ph max(1, kmin / rho) at its
        # outer edge rho; the 16 nodes of a panel are symmetric about its
        # middle, so a panel's edges are recovered from its nodes' sums
        for dk_ph in (0.210945, 0.3, 0.1, 2.0):
            s = make_spectrum(dk_ph)
            rn, rw = _rho_rule(s, s.kmax)
            width = rw.reshape(-1, 16).sum(axis=1)
            outer = np.cumsum(width)
            assert outer[-1] == pytest.approx(s.kmax, rel=1e-12)
            assert np.all(width <= dk_ph * np.maximum(1.0, s.kmin / outer) * (1.0 + 1e-12))

    @pytest.fixture(scope="class", params=[(0.263474, 0.210945), (100.0, 0.1)], ids=["g0", "100-0.1"])
    def kernels(self, request, make_beam, make_spectrum):
        # the kernel and a reference on equal panels of dk_ph / 4
        b, s = make_beam(request.param[0]), make_spectrum(request.param[1])
        ax = half_axis(s)
        return b, s, ax, _position_kernel(b, s, ax), position_kernel_full_band(b, s, ax, uniform_rho_rule(0.25))

    @staticmethod
    def deviation(h, fine) -> float:
        return float(np.max(np.abs(h - fine))) / float(np.max(np.abs(fine)))

    def test_matches_a_finer_uniform_rule(self, kernels):
        # 2.9e-9 at g0 and 3.6e-9 at (100, 0.1); equal panels of dk_ph
        # read 3.2e-9 at both
        _, _, _, h, fine = kernels
        assert self.deviation(h, fine) <= 4e-9

    def test_catches_panels_of_twice_dk_ph(self, kernels):
        # a planted defect: equal panels of 2 dk_ph read 5.1e-9 and 6.6e-9
        b, s, ax, _, fine = kernels
        assert self.deviation(position_kernel_full_band(b, s, ax, uniform_rho_rule(2.0)), fine) > 4e-9

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason="ρ panels straddle the rows' band edges (ROADMAP items 1, 18)")
    def test_converges_at_second_order(self, make_beam, make_spectrum, monkeypatch):
        # the kernel at g0 on the rule's panels and on panels 2, 4 and 8
        # times narrower (the rule at dk_ph / 2, / 4, / 8 and the same
        # kmin): each halving must shrink the change in h at least 4 times.
        # The changes are 3.0e-9, 1.7e-9 and 9.2e-10 of max|h|, each
        # halving shrinking them by 1.7 and 1.9: first order
        b, s = make_beam(0.263474), make_spectrum(0.210945)
        ax = half_axis(s)
        kernels = []
        for parts in (1, 2, 4, 8):
            narrow = SimpleNamespace(kmin=s.kmin, dk_ph=s.dk_ph / parts)
            monkeypatch.setattr(distributions, "_rho_rule", lambda spectrum, r_max: _rho_rule(narrow, r_max))
            kernels.append(_position_kernel(b, s, ax))
        changes = [self.deviation(coarse, fine) for coarse, fine in zip(kernels, kernels[1:])]
        assert changes[1] <= changes[0] / 4.0 and changes[2] <= changes[1] / 4.0


# The 24-node beta rule does not resolve sqrt(1 - (rho/k)^2 sin^2 beta)
# for small |k_x|, where that factor bends sharply at beta = pi/2 on a
# width |k_x| / k: at rows i = 1 and 10 of the half-axis the kernel is off
# by up to 6e-6 max|M| (a graded beta rule agrees within 1e-13).
BETA_RULE = pytest.mark.xfail(strict=True, reason="24-node beta rule at small |k_x|")


class TestPositionKernelOffDiagonal:
    @pytest.fixture(scope="class", params=[(1.0, 0.3), (10.0, 2.0)], ids=["1-0.3", "10-2"])
    def kernel(self, request, make_beam, make_spectrum):
        b, s = make_beam(request.param[0]), make_spectrum(request.param[1])
        ax = half_axis(s)
        return b, s, ax, _position_kernel(b, s, ax)

    # near and far neighbours, pairs whose k leaves the window inside the
    # rho range, and the small-|k_x| rows
    @pytest.mark.parametrize(
        "i, j",
        [(40, 80), (60, 90), (77, 137), (100, 120), (150, 200), (30, 230),
         pytest.param(1, 54, marks=BETA_RULE), pytest.param(10, 40, marks=BETA_RULE)],
    )
    def test_matches_nested_quad(self, kernel, i, j):
        b, s, ax, h = kernel
        ref = kernel_entry_quad(b, s, ax[i], ax[j])
        assert abs(h[i, j] - ref) <= 1e-8 * float(np.max(np.abs(h)))


class TestQuadraticForm:
    @pytest.mark.parametrize(
        "dq_perp,dk_ph", [(0.263474, 0.210945), (1.0, 0.3), (10.0, 2.0)], ids=["g0", "1-0.3", "10-2"]
    )
    def test_matches_expanded_cosine_sum(self, make_beam, make_spectrum, dq_perp, dk_ph):
        # T(s) = dkx^2 sum_pq M_pq cos((k_p - k_q) s) over the kernel
        # expanded by flips onto the mirrored grid [-ax[::-1], ax], at the
        # lattice pitch joint_position uses there
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        ax = half_axis(s)
        dkx = 2.0 * ax[0]
        h = _position_kernel(b, s, ax)
        m = np.block([[h[::-1, ::-1], h[::-1, :]], [h[:, ::-1], h]])
        k = np.concatenate((-ax[::-1], ax))
        pitch = min(1.0 / (2.0 * b.dq_perp), math.sqrt(rel_pos_variance_closed(b, s))) / 10.0
        lags = np.array([0, 1, 2, 7, 50, 280, 1000])
        ref = np.array([dkx**2 * np.sum(m * np.cos(np.subtract.outer(k, k) * lag * pitch)) for lag in lags])
        got = 4.0 * dkx**2 * _t_at_lags(h, ax, lags, pitch)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


class TestLagBlocks:
    @pytest.fixture(scope="class")
    def g0_grid(self, make_beam, make_spectrum):
        b, s = make_beam(0.263474), make_spectrum(0.210945)
        return b, s, joint_position(b, s)[0]

    # g0's T-lattice has 281 lags, one block by default; in blocks of 100
    # every block boundary is crossed, and blocks of 280 and 140 leave one
    # lag over, which joins the block before it
    @pytest.mark.parametrize("block", [100, 280, 140])
    def test_blocks_do_not_change_the_grid(self, g0_grid, monkeypatch, block):
        b, s, whole = g0_grid
        monkeypatch.setattr(distributions, "_LAG_BLOCK", block)
        np.testing.assert_array_equal(joint_position(b, s)[0].density, whole.density)

    def test_peak_at_wide_beam_narrow_spectrum(self, make_beam, make_spectrum):
        # the README plane's (100, 0.1) corner reads 10,082 lags; in one
        # piece their 10,082 x 256 matrices u and u @ kernel would take 39 MiB
        b, s = make_beam(100.0), make_spectrum(0.1)
        assert _traced_peak(lambda: joint_position(b, s)) <= 32 * 2**20


class TestPositionDensityPeak:
    @pytest.mark.parametrize("dq_perp,dk_ph,bound_mib", [(0.3, 1.0, 5.3), (0.263474, 0.210945, 2.3)], ids=["s0", "g0"])
    def test_traced_peak(self, make_beam, make_spectrum, dq_perp, dk_ph, bound_mib):
        # the density is multiplied and clipped in T's lattice buffer, so one
        # lattice of floats lives beside `lag`: the peak is T's lag blocks
        # at s0 (5.22 MiB, 1.2 MiB lattices) and the kernel's at g0 (2.18),
        # where three lattices of floats beside `lag` made 5.36 and 2.78
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        assert _traced_peak(lambda: joint_position(b, s)) <= bound_mib * 2**20


class TestLatticeLags:
    def test_only_the_lags_the_grid_reads(self, make_beam, make_spectrum, monkeypatch):
        # at (100, 0.1) the 141 x 143 grid reads 10,082 distinct |lag|s of
        # the 37,985 up to its largest: T is evaluated at those alone, and
        # the grid is the one that T at every lag gives, to rounding
        b, s = make_beam(100.0), make_spectrum(0.1)
        t_at_lags = distributions._t_at_lags
        seen = []

        def counting(kernel, ax, lags, h):
            seen.append((lags, h))
            return t_at_lags(kernel, ax, lags, h)

        def every_lag(kernel, ax, lags, h):
            return t_at_lags(kernel, ax, np.arange(lags[-1] + 1), h)[lags]

        monkeypatch.setattr(distributions, "_t_at_lags", counting)
        grid, _, _ = joint_position(b, s)
        monkeypatch.setattr(distributions, "_t_at_lags", every_lag)
        full, _, _ = joint_position(b, s)

        (lags, h), = seen
        read = np.unique(np.abs(np.rint(np.subtract.outer(grid.axis1, grid.axis2) / h)))
        np.testing.assert_array_equal(lags, read)
        assert grid.density.shape == (141, 143) and lags.size == 10_082 and lags[-1] < 37_985
        np.testing.assert_allclose(grid.density, full.density, rtol=0.0, atol=1e-15 * full.density.max())

    def test_every_lag_read_at_the_benchmark_points(self, make_beam, make_spectrum, monkeypatch):
        # g0's grid reads every lag up to its largest, 280, so T is
        # evaluated at the lags 0, 1, ..., 280, as over the whole lattice
        t_at_lags, seen = distributions._t_at_lags, []

        def counting(kernel, ax, lags, h):
            seen.append(lags)
            return t_at_lags(kernel, ax, lags, h)

        monkeypatch.setattr(distributions, "_t_at_lags", counting)
        joint_position(make_beam(0.263474), make_spectrum(0.210945))
        np.testing.assert_array_equal(seen[0], np.arange(281))


class TestLatticeStrides:
    @pytest.mark.parametrize("dq_perp,dk_ph,axis", [(2.4, 1.0, "axis1"), (0.2, 0.63, "axis2")], ids=["x_el", "x_ph"])
    def test_a_stride_that_rounds_to_zero_is_one(self, make_beam, make_spectrum, dq_perp, dk_ph, axis):
        # the pitch h is min(sigma_el, sigma_t) / 10, and at these points
        # sigma / (10 h) for the narrower width rounds to just below one,
        # which int() takes to zero: that axis still steps one pitch
        grid, s, _ = joint_position(make_beam(dq_perp), make_spectrum(dk_ph))
        assert np.diff(getattr(grid, axis))[0] == pytest.approx(s[1], rel=1e-12)

    def test_negative_density_refused(self, make_beam, make_spectrum, monkeypatch):
        # a planted defect: T lowered by 4 dkx^2 dips the grid far below
        # the -1e-9 that the check admits as rounding
        t_at_lags = distributions._t_at_lags
        monkeypatch.setattr(distributions, "_t_at_lags", lambda *args: t_at_lags(*args) - 1.0)
        with pytest.raises(ConsistencyError, match="joint position density has negative values"):
            joint_position(make_beam(0.263474), make_spectrum(0.210945))


class TestLeastGridSizes:
    @pytest.mark.parametrize("dk_ph", [0.1, 1.0])
    @pytest.mark.parametrize("dq_perp", [0.1, 1.0, 10.0, 100.0])
    def test_panel_cells(self, make_beam, make_spectrum, dq_perp, dk_ph):
        # the panel cells where dist completes: the x_el axis spans 7
        # electron widths each side at pitch at most 1/10 of one, so it
        # holds at least 141 points (exactly 141 at five of these cells), and
        # the q axis spans 2 (kmax + 6 dq_perp) at 8 points per dq_perp, so
        # at least 97
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        assert joint_position(b, s)[0].axis1.size >= 141
        assert momentum_grid(b, s)[0].axis1.size >= 97

    @pytest.mark.xfail(
        raises=ConsistencyError, strict=True, reason="the position grid does not normalize below the README plane (ROADMAP item 1)"
    )
    @pytest.mark.parametrize("dk_ph", [0.3, 1.0])
    def test_normalizes_below_the_plane(self, make_beam, make_spectrum, dk_ph):
        # dq_perp 0.03, a third of the README plane's smallest, with the
        # example config otherwise: the grid integrates to 2.646485 at
        # dk_ph 0.3 and to 3.009806 at 1, and _check_normalized refuses it
        grid = joint_position(make_beam(0.03), make_spectrum(dk_ph))[0]
        assert grid.integral() == pytest.approx(1.0, abs=NORMALIZATION_TOL)


class TestLatticeCap:
    """The position lattice is sized before the kernel is built, and one
    whose density and lag arrays, 16 bytes a cell, would exceed
    MAX_ARRAY_BYTES is refused by `check_budget`."""

    @pytest.mark.parametrize(
        "dq_perp,dk_ph,shape",
        [(1e-3, 1.0, "143 x 245231"), (3e-3, 3.0, "143 x 174551")],
        ids=["1e-3-1", "3e-3-3"],
    )
    def test_oversize_lattice_is_refused_before_the_kernel(self, make_beam, make_spectrum, dq_perp, dk_ph, shape):
        # 535 and 381 MiB of density and lags; the refusal builds nothing
        b, s = make_beam(dq_perp), make_spectrum(dk_ph)
        n, m = map(int, shape.split(" x "))
        message = f"{n * m:.4g} position lattice cells at 16 bytes each exceed the 64 MiB array budget"

        def refused():
            with pytest.raises(ResolutionError, match=f"^{re.escape(message)}$"):
                joint_position(b, s)

        assert _traced_peak(refused) < 2**20

    @pytest.mark.parametrize("cap,refused", [(211 * 351, False), (211 * 351 - 1, True)])
    def test_cap_counts_the_cells(self, make_beam, make_spectrum, monkeypatch, cap, refused):
        # g0's lattice is 211 x 351 cells, at 16 bytes a cell; its lags and
        # its kernel's rho nodes take less
        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", 16 * cap)
        b, s = make_beam(0.263474), make_spectrum(0.210945)
        if refused:
            with pytest.raises(ResolutionError, match="^7.406e\\+04 position lattice cells"):
                joint_position(b, s)
        else:
            assert joint_position(b, s)[0].density.shape == (211, 351)


def readme_rebuild():
    """README's `rebuild`: both joint densities from dist's three files."""
    block = readme_section("Figures").split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace["rebuild"]


class TestDistFactors:
    @pytest.mark.parametrize(
        "dq_perp,dk_ph", [(0.263474, 0.210945), (3.0, 0.3), (100.0, 0.1)], ids=["g0", "readme", "wide-beam"]
    )
    def test_factors_rebuild_the_grids(self, tmp_path, dq_perp, dk_ph):
        cfg = write_dist_config(tmp_path, dq_perp, dk_ph)
        run_dist(cfg, tmp_path / "o")
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["dist.json", "dist_marginal.csv", "dist_relative.csv"]
        momentum, position = readme_rebuild()(tmp_path / "o")
        run = load_config(cfg)
        beam, spectrum = run.beam(), run.spectrum()
        grid, _ = momentum_grid(beam, spectrum)
        assert np.array_equal(momentum, grid.density)
        grid, _, _ = joint_position(beam, spectrum)
        assert np.array_equal(position, grid.density)
        info = json.loads((tmp_path / "o" / "dist.json").read_text())
        assert info["position_shape"] == list(position.shape) and info["momentum_shape"] == list(momentum.shape)
        # the envelope in x_el integrates to 1 / (2 pi), so T to 2 pi, to
        # the 1% that each grid's normalization is held to
        assert info["relative_integral"] == pytest.approx(2.0 * math.pi, rel=0.01)

    def test_factor_files_pinned_at_g0(self, tmp_path):
        # sha256 of the two factor files at g0, taken with numpy 2.4 and its
        # OpenBLAS on x86-64: T's sums run through BLAS, so another build may
        # move their last bits. A change to G, T or their formatting moves them
        run_dist(write_dist_config(tmp_path, 0.263474, 0.210945), tmp_path / "o")
        digests = {
            name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
            for name in ("dist_marginal.csv", "dist_relative.csv")
        }
        assert digests == {
            "dist_marginal.csv": "bb7e53aa356a47fc8ca4b10195584d9339c8fdb7aab0c1e49b943aa56100041d",
            "dist_relative.csv": "c224f96b6be60594bb5275e8ac183e68b712d8a34c0ab8b3ec936d7a9220f219",
        }

    def test_one_marginal_call_per_k_axis(self, tmp_path, marginal_calls):
        # at g0 G is evaluated once on each k_x axis: the position kernel's
        # N_KX / 2 points and the momentum grid's N_KX, whose G dist writes
        run_dist(write_dist_config(tmp_path, 0.263474, 0.210945), tmp_path / "o")
        assert sorted(marginal_calls) == [N_KX // 2, N_KX]

    @pytest.mark.parametrize("variant", ["polar_linear", "radial_kc", "radial_dk"])
    def test_phase_is_neglected(self, tmp_path, variant):
        # the grids never read [phase]: a non-zero phase writes the zero
        # phase's factors, and dist.json says so
        run_dist(write_dist_config(tmp_path, 3.0, 0.3), tmp_path / "zero")
        run_dist(write_dist_config(tmp_path, 3.0, 0.3, f"\n[phase]\nvariant = {variant}\nxi = 0.5\n"), tmp_path / "on")
        for name in ("dist_marginal.csv", "dist_relative.csv"):
            assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "zero" / name).read_bytes()
        info = json.loads((tmp_path / "on" / "dist.json").read_text())
        assert info["phase"] == "neglected" and f"variant = {variant}" in info["config"]

    def test_benchmark_summary(self, tmp_path):
        # the summary the benchmark compares at its narrow-spectrum point:
        # the shapes exactly, the integrals to 1e-12
        run_dist(write_dist_config(tmp_path, 0.263474, 0.210945), tmp_path)
        info = json.loads((tmp_path / "dist.json").read_text())
        assert info["momentum_shape"] == [962, 512] and info["position_shape"] == [211, 351]
        assert info["momentum_integral"] == pytest.approx(0.9999999999999987, rel=0.0, abs=1e-12)
        assert info["position_integral"] == pytest.approx(0.9999999999881559, rel=0.0, abs=1e-12)

    def test_kernel_failure_writes_nothing(self, tmp_path):
        # the benchmark's wide-spectrum point fails the position kernel's
        # check before either factor is written
        with pytest.raises(ConsistencyError, match="kernel diagonal"):
            run_dist(write_dist_config(tmp_path, 31.2763, 9.61536), tmp_path / "o")
        assert list((tmp_path / "o").iterdir()) == []
