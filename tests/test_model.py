import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import spherical_jn

from clpair import (
    BeamParams,
    DomainError,
    SingularPointError,
    SpectrumModel,
    ZeroPhase,
    derive_kinematics,
    spectrum_normalization,
    wavelength_to_wavenumbers,
)
from clpair.constants import ELECTRON_REST_KEV, HBARC_KEV_UM
from clpair.model import (
    PolarLinearPhase,
    QuadratureSpec,
    RadialDkPhase,
    RadialKcPhase,
    eval_f,
    eval_g,
    eval_gamma,
    eval_gamma_cartesian,
    gamma_cartesian_derivatives,
    psi_ini_x_sq,
)
from clpair.distributions import joint_momentum
from clpair.measures import _H_SMALL_X, _sonine_h
from clpair.quadrature import gauss_legendre_panels

from conftest import DQ_PAR, K_C, window
from reference_quadrature import integrate_1d
from reference_tables import ERF_TABLE, SPHERICAL_JN_TABLE

H0 = 1.0 / (2.0 * math.pi)


def sonine_h_scipy(x):
    """h(x) = (15/4pi)(j1(x)/x - 3 j2(x)/x^2) from scipy's spherical_jn."""
    return (15.0 / (4.0 * math.pi)) * (spherical_jn(1, x) / x - 3.0 * spherical_jn(2, x) / x**2)


class TestSpecialFunctionPins:
    """Pin the special functions the package evaluates (math.erf and the
    elementary Sonine factor) to frozen mpmath values, and pin scipy's
    spherical_jn, the reference the dense Sonine check leans on."""

    def test_erf_table(self):
        for x, ref in ERF_TABLE:
            assert math.erf(x) == pytest.approx(ref, rel=1e-14, abs=1e-15)

    def test_spherical_jn_table(self):
        for n, x, ref in SPHERICAL_JN_TABLE:
            assert spherical_jn(n, x) == pytest.approx(ref, rel=1e-13), (n, x)

    def test_sonine_h_table(self):
        j = {(n, x): ref for n, x, ref in SPHERICAL_JN_TABLE}
        for x in sorted({x for _, x, _ in SPHERICAL_JN_TABLE}):
            ref = (15.0 / (4.0 * math.pi)) * (j[1, x] / x - 3.0 * j[2, x] / x**2)
            assert float(_sonine_h(x)) == pytest.approx(ref, rel=1e-13), x

    def test_sonine_h_dense_grid(self):
        # straddles the switch from the series to the elementary form
        x = np.unique(
            np.concatenate(
                [
                    np.linspace(1e-6, 4.0, 40001),
                    np.geomspace(4.0, 1e4, 20001),
                    np.nextafter(_H_SMALL_X, [0.0, np.inf]),
                ]
            )
        )
        assert np.max(np.abs(_sonine_h(x) - sonine_h_scipy(x))) <= 1e-13 * H0
        assert float(_sonine_h(0.0)) == pytest.approx(H0, rel=1e-15)


class TestKinematics:
    def test_200_kev_values(self):
        q0, c_over_vz = derive_kinematics(200.0)
        assert q0 == pytest.approx(2.5054e6, rel=1e-4)
        assert c_over_vz == pytest.approx(1.4382, rel=1e-4)

    def test_de_broglie_cross_check(self):
        # published 200 keV de Broglie wavelength ~ 2.51 pm
        q0, _ = derive_kinematics(200.0)
        lam_pm = 2.0 * math.pi / q0 * 1e6
        assert lam_pm == pytest.approx(2.51, rel=2e-3)

    def test_rest_energy_point(self):
        q0, c_over_vz = derive_kinematics(ELECTRON_REST_KEV)
        assert q0 == pytest.approx(math.sqrt(3.0) * ELECTRON_REST_KEV / HBARC_KEV_UM, rel=1e-12)
        assert c_over_vz == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)

    def test_nonrelativistic_divergence_guarded(self):
        q0, c_over_vz = derive_kinematics(1e-12)
        assert math.isfinite(q0) and c_over_vz > 1e4

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            derive_kinematics(0.0)
        with pytest.raises(DomainError):
            derive_kinematics(-5.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                derive_kinematics(bad)

    @given(st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_monotonic_in_energy(self, k):
        q0_a, cv_a = derive_kinematics(k)
        q0_b, cv_b = derive_kinematics(k * 1.01)
        assert q0_b > q0_a
        assert 1.0 < cv_b < cv_a


class TestWavelengthConversion:
    def test_fig_params(self):
        # dk = 2 pi dlambda / lambda^2; dlambda ~ 0.0119 um gives the
        # reference width 0.3 um^-1
        k_c, dk = wavelength_to_wavenumbers(0.5, 0.0119)
        assert k_c == pytest.approx(12.566370614359172, rel=1e-12)
        assert dk == pytest.approx(0.3, rel=0.01)

    def test_two_pi_identity(self):
        k_c, _ = wavelength_to_wavenumbers(2.0 * math.pi, 0.1)
        assert k_c == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            wavelength_to_wavenumbers(-0.5, 0.1)
        with pytest.raises(DomainError):
            wavelength_to_wavenumbers(0.5, 0.0)


class TestSpectrumNormalization:
    @pytest.mark.parametrize("dk", [0.1, 1.0, 10.0, 30.0])
    def test_radial_quadrature_unity(self, dk, make_spectrum):
        s = make_spectrum(dk)
        kmin, kmax = window(s, 10.0)
        value, _ = quad(lambda k: k**2 * eval_g(s, k), kmin, kmax, points=[s.k_c], epsabs=1e-14, epsrel=1e-12, limit=200)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_narrow_limit(self):
        k_c = 12.566
        dk = k_c / 100.0
        limit = 1.0 / (math.sqrt(2.0 * math.pi) * dk * k_c**2)
        assert spectrum_normalization(k_c, dk) == pytest.approx(limit, rel=1e-3)

    def test_matches_independent_quadrature_inverse(self):
        k_c, dk = 12.566, 1.0
        raw = lambda k: k**2 * np.exp(-((k - k_c) ** 2) / (2.0 * dk**2))
        value, _ = quad(raw, 0.0, k_c + 12.0 * dk, epsabs=1e-9, epsrel=1e-12, limit=200)
        assert spectrum_normalization(k_c, dk) == pytest.approx(1.0 / value, rel=1e-9)


class TestSpectrumModel:
    def test_gamma_zeros_and_peak(self, make_spectrum):
        s = make_spectrum(1.0)
        assert eval_gamma(s, s.k_c, 0.0) == 0.0
        assert eval_gamma(s, s.k_c, math.pi / 2.0) == pytest.approx(0.0, abs=1e-30)
        assert eval_gamma(s, s.k_c, math.pi / 4.0) == pytest.approx(s.n_g * 15.0 / (32.0 * math.pi), rel=1e-12)

    def test_full_3d_normalization(self, make_spectrum):
        s = make_spectrum(1.0)
        kn, kw = gauss_legendre_panels(*window(s, 10.0), 16, 16)
        tn, tw = gauss_legendre_panels(0.0, math.pi, 8, 16)
        total = 2.0 * math.pi * np.einsum(
            "i,j,ij->", kw * kn**2, tw * np.sin(tn), eval_gamma(s, kn[:, None], tn[None, :])
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_angular_profile_normalized(self):
        tn, tw = gauss_legendre_panels(0.0, math.pi, 8, 16)
        assert 2.0 * math.pi * np.sum(tw * np.sin(tn) * eval_f(tn)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            SpectrumModel(-1.0, 0.3)
        with pytest.raises(DomainError):
            SpectrumModel(12.0, 0.0)
        for k_c, dk in ((math.inf, 0.3), (12.0, math.inf), (math.nan, 0.3), (12.0, math.nan)):
            with pytest.raises(DomainError):
                SpectrumModel(k_c, dk)

    def test_normalization_not_settable(self):
        # n_g follows from k_c and dk_ph; a given one would silently change
        # every moment of the spectrum
        with pytest.raises(TypeError):
            SpectrumModel(12.566, 0.3, n_g=0.01)
        assert SpectrumModel(12.566, 0.3).n_g == spectrum_normalization(12.566, 0.3)

    @pytest.mark.parametrize("k_c,dk_ph", [(12.566, 0.3), (12.566, 30.0)], ids=["narrow", "cut-at-zero"])
    def test_radial_window_derived(self, k_c, dk_ph):
        # the window every integral over the spectrum runs on: 8 dk_ph
        # about k_c, cut at k = 0, and not settable
        s = SpectrumModel(k_c, dk_ph)
        assert (s.kmin, s.kmax) == (max(0.0, k_c - 8.0 * dk_ph), k_c + 8.0 * dk_ph)
        for name in ("kmin", "kmax"):
            with pytest.raises(TypeError):
                SpectrumModel(k_c, dk_ph, **{name: 1.0})


class TestQuadratureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": math.nan},
            {"rel_tol": math.inf},
            {"abs_tol": -1.0},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_inadmissible(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)

    def test_zero_abs_tol_allowed(self):
        assert QuadratureSpec(abs_tol=0.0).abs_tol == 0.0


class TestGammaDerivatives:
    def test_matches_finite_differences(self, make_spectrum):
        s = make_spectrum(1.0)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-14.0, 14.0, size=(50, 3))
        step = 1e-5 * s.k_c
        gam, gx, gy, gxx, gyy = gamma_cartesian_derivatives(s, pts)
        for axis, (d1, d2) in enumerate([(gx, gxx), (gy, gyy)]):
            e = np.zeros(3)
            e[axis] = step
            up = eval_gamma_cartesian(s, pts + e)
            dn = eval_gamma_cartesian(s, pts - e)
            fd1 = (up - dn) / (2.0 * step)
            fd2 = (up - 2.0 * gam + dn) / step**2
            assert np.max(np.abs(fd1 - d1)) < 1e-6 * np.max(np.abs(d1))
            assert np.max(np.abs(fd2 - d2)) < 1e-5 * np.max(np.abs(d2))

    def test_parity(self, make_spectrum):
        s = make_spectrum(1.0)
        p = np.array([[3.0, 1.0, 9.0]])
        m = np.array([[-3.0, 1.0, 9.0]])
        _, gx_p, _, gxx_p, _ = gamma_cartesian_derivatives(s, p)
        _, gx_m, _, gxx_m, _ = gamma_cartesian_derivatives(s, m)
        assert gx_m[0] == pytest.approx(-gx_p[0], rel=1e-12)
        assert gxx_m[0] == pytest.approx(gxx_p[0], rel=1e-12)

    def test_on_axis_transverse_laplacian(self, make_spectrum):
        # on the polar axis the density vanishes quadratically; the
        # transverse Laplacian limit is 4 g(k) C / k^2 with C = 15/8pi
        s = make_spectrum(1.0)
        kz = s.k_c
        _, gx, gy, gxx, gyy = gamma_cartesian_derivatives(s, np.array([[0.0, 0.0, kz]]))
        expected = 4.0 * float(eval_g(s, kz)) * 15.0 / (8.0 * math.pi) / kz**2
        assert gx[0] == pytest.approx(0.0, abs=1e-12)
        assert gxx[0] + gyy[0] == pytest.approx(expected, rel=1e-6)

    def test_singular_at_origin(self, make_spectrum):
        with pytest.raises(SingularPointError):
            gamma_cartesian_derivatives(make_spectrum(1.0), np.array([[0.0, 0.0, 0.0]]))


class TestBeam:
    def test_create_consistency(self):
        b = BeamParams(200.0, 4.0, 4.8)
        q0, cv = derive_kinematics(200.0)
        assert b.q0 == q0 and b.c_over_vz == cv

    def test_inconsistent_q0_rejected(self):
        # q0 and c/v follow from the kinetic energy; neither is accepted,
        # by position or by keyword
        q0, cv = derive_kinematics(200.0)
        with pytest.raises(TypeError):
            BeamParams(200.0, q0, 5.0, 3.0, 4.833)
        with pytest.raises(TypeError):
            BeamParams(200.0, 3.0, 4.833, q0=q0, c_over_vz=cv)

    def test_small_recoil_guard(self):
        q0, _ = derive_kinematics(200.0)
        with pytest.raises(DomainError):
            BeamParams(200.0, q0 * 1.5, 1.0)
        with pytest.warns(UserWarning):
            BeamParams(200.0, q0 / 5.0, 1.0)

    def test_psi_ini_normalized(self):
        # |psi_ini(q)|^2 is the product of the transverse densities in qx, qy
        # and the longitudinal one (same Gaussian form, width dq_par) in qz
        b = BeamParams(200.0, 2.0, 3.0)
        qx, wx = gauss_legendre_panels(-8.0 * b.dq_perp, 8.0 * b.dq_perp, 8, 16)
        qz, wz = gauss_legendre_panels(b.q0 - 8.0 * b.dq_par, b.q0 + 8.0 * b.dq_par, 8, 16)
        rx = psi_ini_x_sq(b.dq_perp, qx)
        vals = rx[:, None, None] * rx[None, :, None] * psi_ini_x_sq(b.dq_par, qz - b.q0)[None, None, :]
        total = np.einsum("ijk,i,j,k->", vals, wx, wx, wz)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_psi_ini_peak_and_parity(self):
        # the transverse density |psi_ini^(x)|^2 peaks at 1/(sqrt(2 pi) dq_perp)
        b = BeamParams(200.0, 2.0, 3.0)
        peak = 1.0 / (math.sqrt(2.0 * math.pi) * b.dq_perp)
        assert psi_ini_x_sq(b.dq_perp, 0.0) == pytest.approx(peak, rel=1e-12)
        assert psi_ini_x_sq(b.dq_perp, 1.5) == psi_ini_x_sq(b.dq_perp, -1.5)

    def test_psi_x_sq_normalized(self):
        b = BeamParams(200.0, 2.0, 3.0)
        qx, wx = gauss_legendre_panels(-16.0, 16.0, 8, 16)
        assert np.sum(wx * psi_ini_x_sq(b.dq_perp, qx)) == pytest.approx(1.0, abs=1e-12)


class TestPhases:
    def test_xi1_for_linear_eta(self, make_spectrum):
        # eta = theta: xi1 = pi int sin cos^2 f (d eta/d theta)^2 = 3/14 by
        # quadrature, and the phase built from that xi1 has the gradient
        # (d eta/d theta cos(theta) / k)^2 = (cos(theta) / k)^2
        tn, tw = gauss_legendre_panels(0.0, math.pi, 24, 16)
        xi1 = math.pi * float(np.sum(tw * np.sin(tn) * np.cos(tn) ** 2 * eval_f(tn)))
        assert xi1 == pytest.approx(3.0 / 14.0, abs=1e-10)
        k, th = np.array([[10.0], [12.0]]), np.array([[0.3, 0.7, 2.5]])
        got = PolarLinearPhase(xi1).gradient_sq(make_spectrum(0.3), k, th)
        np.testing.assert_allclose(got, (np.cos(th) / k) ** 2, rtol=1e-10)

    def test_radial_kc_substitution(self, make_spectrum):
        s = SpectrumModel(12.566, 0.3)
        assert RadialKcPhase(100.0).d_eta(s) == pytest.approx(200.0 / (7.0 * 12.566**2), rel=1e-10)
        assert RadialDkPhase(5.0).d_eta(s) == pytest.approx(10.0 / (7.0 * 0.09), rel=1e-10)

    def test_transverse_gradient_sq(self, make_spectrum):
        s = make_spectrum(0.3)
        k, th = 10.0, 0.7
        got = RadialKcPhase(4.0).gradient_sq(s, k, th)
        assert got == pytest.approx(4.0 / s.k_c**2 * math.sin(th) ** 2, rel=1e-10)
        got = RadialDkPhase(9.0).gradient_sq(s, k, th)
        assert got == pytest.approx(9.0 / s.dk_ph**2 * math.sin(th) ** 2, rel=1e-10)
        got = PolarLinearPhase(3.0 / 14.0).gradient_sq(s, k, th)
        assert got == pytest.approx((math.cos(th) / k) ** 2, rel=1e-12)

    def test_gradient_sq_shape(self, make_spectrum):
        # every variant gives the broadcast shape of (k, theta)
        s = make_spectrum(0.3)
        k, th = np.array([[10.0], [12.0]]), np.array([[0.5, 1.0, 2.0]])
        for phase in (ZeroPhase(), PolarLinearPhase(0.1), RadialKcPhase(4.0), RadialDkPhase(9.0)):
            assert phase.gradient_sq(s, k, th).shape == (2, 3), phase
        assert np.all(ZeroPhase().gradient_sq(s, k, th) == 0.0)


def filter_norm(spectrum, weight, quad=QuadratureSpec(rel_tol=1e-10)):
    """n_f = 1 / int d3k w(k, theta) Gamma(k, theta) for a filter weight w."""
    th_nodes, th_wts = gauss_legendre_panels(0.0, math.pi, 12, 16)
    ang = th_wts * np.sin(th_nodes) * eval_f(th_nodes)

    def radial(k):
        w = np.broadcast_to(weight(k[:, None], th_nodes[None, :]), (k.size, th_nodes.size))
        return 2.0 * math.pi * k**2 * eval_g(spectrum, k) * (w @ ang)

    return 1.0 / integrate_1d(radial, spectrum.kmin, spectrum.kmax, quad, vectorized=True).value


class TestFilter:
    """A photonic filter multiplies Gamma by a weight w(k, theta) and
    renormalizes by n_f. The package carries no filter; these tests check
    the model's Gamma under such weights, and that a Gaussian band-pass
    centred on the line keeps the spectrum inside the model family."""

    def test_identity_filter(self, make_spectrum):
        n_f = filter_norm(make_spectrum(0.5), lambda k, th: np.ones(np.broadcast(k, th).shape))
        assert n_f == pytest.approx(1.0, abs=1e-8)

    def test_band_indicator(self, make_spectrum):
        s0 = make_spectrum(0.5)
        ind = lambda k, th: ((np.abs(k - s0.k_c) <= s0.dk_ph) * np.ones(np.broadcast(k, th).shape)).astype(float)
        # int_{|k - k_c| <= a} k^2 g(k) dk in closed form, a = dk_ph = sigma
        a = sig = s0.dk_ph
        band = s0.n_g * (
            (s0.k_c**2 + sig**2) * sig * math.sqrt(2.0 * math.pi) * math.erf(a / (math.sqrt(2.0) * sig))
            - 2.0 * a * sig**2 * math.exp(-(a**2) / (2.0 * sig**2))
        )
        assert 1.0 / filter_norm(s0, ind) == pytest.approx(band, rel=1e-6)

    def test_gaussian_filter_narrows_spectrum(self, make_spectrum):
        s0 = make_spectrum(1.0)
        sigma = 0.5
        w = lambda k, th: np.exp(-((k - s0.k_c) ** 2) / (2.0 * sigma**2)) * np.ones(np.broadcast(k, th).shape)
        n_f = filter_norm(s0, w)
        # the filtered line is the model's Gaussian of width (dk^-2 + sigma^-2)^(-1/2)
        s1 = SpectrumModel(s0.k_c, (s0.dk_ph**-2 + sigma**-2) ** -0.5)
        kk = np.linspace(*window(s0, 6.0), 97)
        np.testing.assert_allclose(n_f * w(kk, 0.0) * eval_g(s0, kk), eval_g(s1, kk), rtol=1e-8)

        def k_variance(density):
            kn, kw = gauss_legendre_panels(*window(s0, 10.0), 16, 16)
            tn, tw = gauss_legendre_panels(0.0, math.pi, 8, 16)
            dens = 2.0 * math.pi * np.einsum("j,ij->i", tw * np.sin(tn), density(kn[:, None], tn[None, :])) * kn**2
            m0 = np.sum(kw * dens)
            m1 = np.sum(kw * dens * kn) / m0
            return np.sum(kw * dens * (kn - m1) ** 2) / m0

        filtered = k_variance(lambda k, th: n_f * w(k, th) * eval_gamma(s0, k, th))
        assert filtered < k_variance(lambda k, th: eval_gamma(s0, k, th))
        assert filtered == pytest.approx(k_variance(lambda k, th: eval_gamma(s1, k, th)), rel=1e-8)


class TestScatteredState:
    def test_amplitude_factorization(self, make_beam, make_spectrum):
        # psi_sc(q, k) = psi_ini(q_perp + k_perp, q_z + (c/v_z) k) sqrt(Gamma(k)) exp(i eta);
        # the phase drops out of |psi_sc|^2 and qy, qz integrate the electron
        # density to one, so P(qx, kx) = |psi_ini^(x)(qx + kx)|^2 int dky dkz Gamma
        b = make_beam(3.0)
        s = make_spectrum(0.5)
        kmin, kmax = s.kmin, s.kmax
        bn, bw = gauss_legendre_panels(0.0, 2.0 * math.pi, 8, 16)
        for qx, kx in ((8.0, -9.0), (-1.0, 2.0), (-6.0, 7.5)):
            rn, rw = gauss_legendre_panels(math.sqrt(max(kmin**2 - kx**2, 0.0)), math.sqrt(kmax**2 - kx**2), 16, 16)
            kv = np.stack(
                np.broadcast_arrays(kx, rn[:, None] * np.cos(bn)[None, :], rn[:, None] * np.sin(bn)[None, :]),
                axis=-1,
            )
            marginal = np.einsum("i,j,ij->", rw * rn, bw, eval_gamma_cartesian(s, kv))
            expect = float(psi_ini_x_sq(b.dq_perp, qx + kx)) * marginal
            assert joint_momentum(b, s, qx, kx)[0] == pytest.approx(expect, rel=1e-8), (qx, kx)
