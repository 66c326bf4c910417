import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.signal import argrelextrema

from clpair import DomainError
from clpair.cli import write_grid_csv
from clpair.constants import ANGULAR_NORM
import clpair.distributions as distributions
from clpair.distributions import (
    JointGrid,
    _check_normalized,
    _diagonal_sums,
    _position_kernel,
    joint_momentum,
    joint_position,
    momentum_grid,
    photon_marginal_kx,
)
from clpair.errors import ConsistencyError
from clpair.measures import rel_pos_variance_closed
from clpair.model import eval_g

from conftest import DQ_PAR
from reference_grid_csv import write_grid_csv_per_value


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["axis1", "axis2", "density"])
    def test_non_finite_rejected(self, where, bad):
        # a planted value at the end of an axis, or inside the density; a
        # nan fails every comparison, so no ordering test catches it
        arrays = {"axis1": np.arange(3.0), "axis2": np.arange(3.0), "density": np.ones((3, 3))}
        arrays[where][(1, 1) if where == "density" else -1] = bad
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
        mean, var = g.moments(lambda a, b: a + b)
        assert mean == pytest.approx(4.0 / 3.0, abs=1e-3)
        assert var == pytest.approx(2.0 / 18.0, abs=1e-3)


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


def _csv(writer, grid) -> str:
    buf = io.StringIO()
    writer(grid, buf)
    return buf.getvalue()


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
        return b, s, momentum_grid(b, s)

    def test_momentum_grid_peak(self, beam_spectrum_grid):
        # the density and one temporary of its size, the sum q_x + k_x
        b, s, g = beam_spectrum_grid
        assert _traced_peak(lambda: momentum_grid(b, s)) <= 2.2 * g.density.nbytes

    def test_integral_peak(self, beam_spectrum_grid):
        _, _, g = beam_spectrum_grid
        assert _traced_peak(g.integral) <= 0.25 * g.density.nbytes

    def test_moments_peak(self, beam_spectrum_grid):
        _, _, g = beam_spectrum_grid
        assert _traced_peak(lambda: g.moments(lambda qx, kx: qx + kx)) <= 0.25 * g.density.nbytes

    # the g0 grid is 44% +0.0, which the writer counts as a fraction of a
    # value when it sizes its blocks; the bound holds at both extremes too,
    # every value +0.0 or none, each non-zero with 17 digits and an exponent
    @pytest.mark.parametrize("values", ["g0", "all-zero", "no-zero"])
    def test_csv_streaming_peak(self, beam_spectrum_grid, values):
        _, _, g = beam_spectrum_grid
        if values != "g0":
            rng = np.random.default_rng(5)
            density = np.zeros_like(g.density) if values == "all-zero" else (1.0 + rng.random(g.density.shape)) * 1e-200
            g = JointGrid(g.axis1, g.axis2, density)

        def write():
            with open(os.devnull, "w") as fh:
                write_grid_csv(g, fh)

        assert _traced_peak(write) <= 2**20

    def test_moments_match_full_grid_trapezoid(self, beam_spectrum_grid):
        # the blocked moments against the full-grid form they replace
        _, _, g = beam_spectrum_grid
        v = g.axis1[:, None] + g.axis2[None, :]

        def trap(f):
            return float(np.trapezoid(np.trapezoid(f, g.axis2, axis=1), g.axis1))

        norm = trap(g.density)
        mean = trap(g.density * v) / norm
        var = trap(g.density * v**2) / norm - mean**2
        got_mean, got_var = g.moments(lambda qx, kx: qx + kx)
        assert g.integral() == pytest.approx(norm, rel=1e-13)
        assert got_mean == pytest.approx(mean, rel=1e-10, abs=1e-13)
        assert got_var == pytest.approx(var, rel=1e-12)


class TestGridCsvBytes:
    """write_grid_csv writes the per-value writer's bytes on real grids,
    at the benchmark's two dist points and the README point."""

    @pytest.mark.parametrize("dq_perp,dk_ph", [(0.263474, 0.210945), (3.0, 0.3)], ids=["g0", "readme"])
    @pytest.mark.parametrize("build", [momentum_grid, joint_position], ids=["momentum", "position"])
    def test_matches_per_value_writer(self, make_beam, make_spectrum, dq_perp, dk_ph, build):
        g = build(make_beam(dq_perp), make_spectrum(dk_ph))
        assert _csv(write_grid_csv, g) == _csv(write_grid_csv_per_value, g)

    def test_wide_spectrum_momentum(self, make_beam, make_spectrum):
        # the benchmark's wide-spectrum dist point, whose position kernel
        # fails its check: nearly every momentum value enters the kernel
        g = momentum_grid(make_beam(31.2763), make_spectrum(9.61536))
        assert np.count_nonzero(g.density == 0.0) < 0.01 * g.density.size
        assert _csv(write_grid_csv, g) == _csv(write_grid_csv_per_value, g)


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

    def test_exact_parity(self, grid_and_params):
        # the k_x grid is an exact mirror, so M and T are exactly even
        _, _, g = grid_and_params
        assert np.array_equal(g.axis1, -g.axis1[::-1])
        assert np.array_equal(g.axis2, -g.axis2[::-1])
        assert np.array_equal(g.density, g.density[::-1, ::-1])


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


def diagonal_sums_expanded(h):
    """C_m = sum_p M[p, p + m], m >= 0, of the kernel M expanded from its
    half-axis block h by flips onto the mirrored grid [-ax[::-1], ax],
    with row p adding to C_0 .. C_{2n - 1 - p} in turn."""
    m = np.block([[h[::-1, ::-1], h[::-1, :]], [h[:, ::-1], h]])
    c = np.zeros(m.shape[0])
    for p, row in enumerate(m):
        c[: c.size - p] += row[p:]
    return c


class TestPositionKernel:
    def test_exactly_symmetric(self, make_beam, make_spectrum):
        s = make_spectrum(0.3)
        h = _position_kernel(make_beam(1.0), s, half_axis(s))
        assert h.shape == (256, 256)
        # each radial node's Gram matrix is one BLAS syrk, symmetric bit for bit
        assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("dk_ph", [0.1, 0.5, 1.6, 2.0, 2.5, 3.0, 3.25, 3.29])
    def test_diagonal_check_envelope(self, make_beam, make_spectrum, dk_ph):
        # the seed's quadrature passes the diagonal check up to dk_ph = 3.291
        # at dq_perp = 1; an under-sized rho grid fails it below that
        s = make_spectrum(dk_ph)
        _position_kernel(make_beam(1.0), s, half_axis(s))


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


class TestDiagonalSums:
    @pytest.mark.parametrize(
        "dq_perp,dk_ph", [(0.263474, 0.210945), (1.0, 0.3), (10.0, 2.0)], ids=["g0", "1-0.3", "10-2"]
    )
    def test_matches_expanded_kernel(self, make_beam, make_spectrum, dq_perp, dk_ph):
        # the same additions in the same order, so the same bits
        s = make_spectrum(dk_ph)
        h = _position_kernel(make_beam(dq_perp), s, half_axis(s))
        np.testing.assert_array_equal(_diagonal_sums(h), diagonal_sums_expanded(h))


class TestLagBlocks:
    def test_blocks_do_not_change_the_grid(self, make_beam, make_spectrum, monkeypatch):
        # g0's T-lattice has under 900 lags, one block by default; in
        # blocks of 100 every block boundary is crossed
        b, s = make_beam(0.263474), make_spectrum(0.210945)
        whole = joint_position(b, s)
        monkeypatch.setattr(distributions, "_LAG_BLOCK", 100)
        np.testing.assert_array_equal(joint_position(b, s).density, whole.density)

    def test_peak_at_wide_beam_narrow_spectrum(self, make_beam, make_spectrum):
        # the README plane's (100, 0.1) corner spans 37,985 lags; in one
        # piece their 37,985 x 512 cosine matrix and its argument took 298 MiB
        b, s = make_beam(100.0), make_spectrum(0.1)
        assert _traced_peak(lambda: joint_position(b, s)) <= 32 * 2**20


class TestLatticeLags:
    def test_only_the_lags_the_grid_reads(self, make_beam, make_spectrum, monkeypatch):
        # at (100, 0.1) the 141 x 143 grid reads 10,082 distinct |lag|s of
        # the 37,985 up to its largest: T is evaluated at those alone, and
        # the grid is the one that T at every lag gives, to rounding
        b, s = make_beam(100.0), make_spectrum(0.1)
        t_at_lags = distributions._t_at_lags
        seen = []

        def counting(c, modes, lags, h):
            seen.append((lags, h))
            return t_at_lags(c, modes, lags, h)

        def every_lag(c, modes, lags, h):
            return t_at_lags(c, modes, np.arange(lags[-1] + 1), h)[lags]

        monkeypatch.setattr(distributions, "_t_at_lags", counting)
        grid = joint_position(b, s)
        monkeypatch.setattr(distributions, "_t_at_lags", every_lag)
        full = joint_position(b, s)

        (lags, h), = seen
        read = np.unique(np.abs(np.rint(np.subtract.outer(grid.axis1, grid.axis2) / h)))
        np.testing.assert_array_equal(lags, read)
        assert grid.density.shape == (141, 143) and lags.size == 10_082 and lags[-1] < 37_985
        np.testing.assert_allclose(grid.density, full.density, rtol=0.0, atol=1e-15 * full.density.max())

    def test_every_lag_read_at_the_benchmark_points(self, make_beam, make_spectrum, monkeypatch):
        # g0's grid reads every lag up to its largest, 280, so T is
        # evaluated at the lags 0, 1, ..., 280, as over the whole lattice
        t_at_lags, seen = distributions._t_at_lags, []

        def counting(c, modes, lags, h):
            seen.append(lags)
            return t_at_lags(c, modes, lags, h)

        monkeypatch.setattr(distributions, "_t_at_lags", counting)
        joint_position(make_beam(0.263474), make_spectrum(0.210945))
        np.testing.assert_array_equal(seen[0], np.arange(281))
