import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import spherical_jn

from clpair import (
    BeamParams,
    DomainError,
    PhaseModel,
    SpectrumModel,
    derive_kinematics,
    spectrum_normalization,
    wavelength_to_wavenumbers,
)
from clpair.constants import (
    ELECTRON_REST_KEV,
    ENERGY_KEV_MAX,
    ENERGY_KEV_MIN,
    HBARC_KEV_UM,
    K_C_MAX,
    K_C_MIN,
    L_MIN,
    TWO_PI,
    U_MIN,
    W_MAX,
    W_MIN,
)
from clpair.model import (
    check_admissible,
    eval_f,
    eval_g,
    eval_gamma,
    eval_gamma_cartesian,
    gamma_transverse_gradient,
    psi_ini_x_sq,
)
from clpair.distributions import N_KX, momentum_grid, photon_marginal_kx
from clpair.measures import _H_SMALL_X, _sonine_h, rel_pos_variance_closed
from clpair.quadrature import GammaSampler, gauss_legendre_panels

from conftest import DQ_PAR, K_C, window
from reference_quadrature import integrate_1d
from reference_tables import ERF_TABLE, SPHERICAL_JN_TABLE
from reference_variance import phase_gradient_sq

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


class TestGammaDerivatives:
    def test_matches_finite_differences(self, make_spectrum):
        s = make_spectrum(1.0)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-14.0, 14.0, size=(50, 3))
        step = 1e-5 * s.k_c
        gam, gx, gy = gamma_transverse_gradient(s, pts)
        np.testing.assert_allclose(gam, eval_gamma_cartesian(s, pts), rtol=1e-14, atol=0.0)
        for axis, d1 in enumerate((gx, gy)):
            e = np.zeros(3)
            e[axis] = step
            fd1 = (eval_gamma_cartesian(s, pts + e) - eval_gamma_cartesian(s, pts - e)) / (2.0 * step)
            assert np.max(np.abs(fd1 - d1)) < 1e-6 * np.max(np.abs(d1))

    def test_parity(self, make_spectrum):
        s = make_spectrum(1.0)
        _, gx_p, gy_p = gamma_transverse_gradient(s, np.array([[3.0, 1.0, 9.0]]))
        _, gx_m, gy_m = gamma_transverse_gradient(s, np.array([[-3.0, 1.0, 9.0]]))
        assert gx_m[0] == -gx_p[0] != 0.0
        assert gy_m[0] == gy_p[0]

    @pytest.mark.parametrize("kz", [12.5, -3.0, 1e-3])
    def test_vanishes_on_the_polar_axis(self, kz, make_spectrum):
        # the density vanishes quadratically off the axis, so both
        # transverse partials are zero there; the closed form divides by
        # nothing that is zero on the axis, so no numpy warning is raised
        gam, gx, gy = gamma_transverse_gradient(make_spectrum(1.0), np.array([[0.0, 0.0, kz]]))
        assert gam[0] == gx[0] == gy[0] == 0.0

    def test_origin_is_outside_the_domain(self, make_spectrum):
        with pytest.raises(DomainError, match="k = 0"):
            gamma_transverse_gradient(make_spectrum(1.0), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


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


def readme_point(kinetic_energy_kev=200.0, dq_perp=3.0, dq_par=DQ_PAR, k_c=K_C, dk_ph=1.0):
    """The library's beam and spectrum at the README point with one input
    changed, and the box check at them."""
    spectrum = SpectrumModel(k_c, dk_ph)
    beam = BeamParams(kinetic_energy_kev, dq_perp, dq_par)
    check_admissible(beam, spectrum)
    return beam, spectrum


# the CLI's outside-the-box inputs (tests/test_cli.py `_OUTSIDE_BOX`) as
# library calls, each with the group its DomainError names
OUTSIDE_BOX = {
    "l_par-1e200": (lambda: readme_point(dq_par=TWO_PI / 1e200), "l = dq_par (v/c) / k_c"),
    "l_par-1e160": (lambda: readme_point(dq_par=TWO_PI / 1e160), "l = dq_par (v/c) / k_c"),
    "l_par-1e50": (lambda: readme_point(dq_par=TWO_PI / 1e50), "l = dq_par (v/c) / k_c"),
    "dq_perp-1e-320": (lambda: readme_point(dq_perp=1e-320), "u = dq_perp / k_c"),
    "dk_ph-1e-200": (lambda: readme_point(dk_ph=1e-200), "w = dk_ph / k_c"),
    "dk_ph-1e200": (lambda: readme_point(dk_ph=1e200), "w = dk_ph / k_c"),
    "energy-1e200": (lambda: readme_point(kinetic_energy_kev=1e200), "kinetic energy (keV)"),
    "lambda_c-1e-300": (lambda: readme_point(k_c=TWO_PI / 1e-300), "k_c"),
    "lambda_c-1e300": (lambda: readme_point(k_c=TWO_PI / 1e300), "k_c"),
    "dlambda-1e300": (lambda: readme_point(dk_ph=wavelength_to_wavenumbers(0.5, 1e300)[1]), "w = dk_ph / k_c"),
    "dlambda-1e-300": (lambda: readme_point(dk_ph=wavelength_to_wavenumbers(0.5, 1e-300)[1]), "w = dk_ph / k_c"),
    "lambda_c-1e-170-dlambda": (lambda: wavelength_to_wavenumbers(1e-170, 0.01), "k_c"),
}

ABOVE, BELOW = 1.0 + 1e-12, 1.0 - 1e-12


class TestAdmissibleBox:
    """The box in u, w, l, k_c and the energy: a point outside it raises
    DomainError naming the group, and none inside it derives a quantity
    that is not a positive finite double."""

    @pytest.mark.parametrize("case", list(OUTSIDE_BOX))
    def test_outside_raises_domain_error(self, case):
        build, group = OUTSIDE_BOX[case]
        with pytest.raises(DomainError, match="outside the admissible box") as info:
            build()
        assert str(info.value).startswith(group)

    @pytest.mark.parametrize(
        "inside,outside,group",
        [
            (lambda f: SpectrumModel(K_C_MIN * f, K_C_MIN), BELOW, "k_c"),
            (lambda f: SpectrumModel(K_C_MAX * f, K_C_MAX), ABOVE, "k_c"),
            (lambda f: SpectrumModel(1.0, W_MIN * f), BELOW, "w"),
            (lambda f: SpectrumModel(1.0, W_MAX * f), ABOVE, "w"),
            (lambda f: readme_point(dq_perp=U_MIN * K_C * f), BELOW, "u"),
            (lambda f: readme_point(dq_par=L_MIN * derive_kinematics(200.0)[1] * K_C * f), BELOW, "l"),
            (lambda f: BeamParams(ENERGY_KEV_MAX * f, 1.0, 1.0), ABOVE, "kinetic energy"),
        ],
        ids=["k_c-min", "k_c-max", "w-min", "w-max", "u-min", "l-min", "energy-max"],
    )
    def test_each_edge(self, inside, outside, group):
        # a hair inside the edge is admitted, a hair outside refused
        inside(ABOVE if outside == BELOW else BELOW)
        with pytest.raises(DomainError, match=f"^{group}"):
            inside(outside)

    def test_lowest_energy_is_refused_by_its_edge_or_by_l(self):
        # below ENERGY_KEV_MIN (c/v_z)^2 would overflow; just above it q0 is
        # so small that the small-recoil check leaves no finite alpha
        with pytest.raises(DomainError, match="^kinetic energy"):
            BeamParams(ENERGY_KEV_MIN * BELOW, 1e-160, 1e-160)
        with pytest.raises(DomainError, match=r"^l = dq_par \(v/c\) / k_c is outside the admissible box"):
            BeamParams(ENERGY_KEV_MIN * ABOVE, 1e-160, 1e-160)

    @pytest.mark.parametrize("k_c", [K_C_MIN * ABOVE, K_C_MAX * BELOW], ids=["k_c-min", "k_c-max"])
    @pytest.mark.parametrize("w", [W_MIN * ABOVE, W_MAX * BELOW], ids=["w-min", "w-max"])
    @pytest.mark.parametrize("u", [U_MIN * ABOVE, "q0"], ids=["u-min", "u-max"])
    @pytest.mark.parametrize("l", [L_MIN * ABOVE, "q0"], ids=["l-min", "l-max"])
    def test_corners_derive_finite_quantities(self, k_c, w, u, l):
        # at the top energy, whose q0 is the upper edge of u and l: the
        # model's derived quantities and the products the builders form
        # with the highest powers stay positive finite doubles
        q0, c = derive_kinematics(ENERGY_KEV_MAX * BELOW)
        dq_perp = q0 * BELOW if u == "q0" else u * k_c
        dq_par = q0 * BELOW if l == "q0" else l * c * k_c
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a width at q0 is not small-recoil
            beam, spectrum = readme_point(ENERGY_KEV_MAX * BELOW, dq_perp, dq_par, k_c, w * k_c)
        quantities = {
            "n_g": spectrum.n_g,
            "kmax": spectrum.kmax,
            "q0": beam.q0,
            "c_over_vz": beam.c_over_vz,
            "alpha": beam.alpha,
            # W's g = alpha (width / 2)^2 on the purity passes' 4 and 6 radial
            # panels, whose reach sqrt(42 / g) needs g > 0
            **{f"W's g, {n} panels": beam.alpha * (0.5 * (spectrum.kmax - spectrum.kmin) / n) ** 2 for n in (4, 6)},
            "kmax^4": spectrum.kmax**4,
            "dq_perp^2": beam.dq_perp**2,
        }
        for name, value in quantities.items():
            assert 0.0 < value < math.inf, name
        # D^2 goes as (u / w)^2 + (u / l)^2, which underflows to zero where u
        # is at its edge and w and l at their tops; it never overflows
        assert 0.0 <= rel_pos_variance_closed(beam, spectrum) * beam.dq_perp**2 < math.inf
        assert 0.0 <= spectrum.kmin < spectrum.kmax

    @pytest.mark.parametrize("k_c", [K_C_MIN * ABOVE, K_C_MAX * BELOW], ids=["k_c-min", "k_c-max"])
    @pytest.mark.parametrize("w", [W_MIN * ABOVE, W_MAX * BELOW], ids=["w-min", "w-max"])
    def test_corners_keep_the_spectrum_positive(self, k_c, w):
        # g > 0 on the whole radial window, so neither GammaSampler's CDF
        # total nor the largest photon marginal on joint_position's half
        # axis, the scale of the kernel's diagonal check, is zero or
        # infinite, and neither needs a guard. The sampler divides its CDF
        # by the total: a zero or infinite one would raise here, and a
        # positive finite one ends the CDF at exactly one
        spectrum = SpectrumModel(k_c, w * k_c)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            cdf = GammaSampler(spectrum)._cdf
            g_max = float(np.max(photon_marginal_kx(spectrum, (np.arange(N_KX // 2) + 0.5) * (2.0 * spectrum.kmax / N_KX))))
        assert cdf[-1] == 1.0 and np.all(np.isfinite(cdf))
        assert 0.0 < g_max < math.inf


class TestPhases:
    def test_xi1_for_linear_eta(self, make_spectrum):
        # eta = theta: xi1 = pi int sin cos^2 f (d eta/d theta)^2 = 3/14 by
        # quadrature, and the phase built from that xi1 has the gradient
        # (d eta/d theta cos(theta) / k)^2 = (cos(theta) / k)^2
        tn, tw = gauss_legendre_panels(0.0, math.pi, 24, 16)
        xi1 = math.pi * float(np.sum(tw * np.sin(tn) * np.cos(tn) ** 2 * eval_f(tn)))
        assert xi1 == pytest.approx(3.0 / 14.0, abs=1e-10)
        k, th = np.array([[10.0], [12.0]]), np.array([[0.3, 0.7, 2.5]])
        got = phase_gradient_sq(PhaseModel("polar_linear", xi1), make_spectrum(0.3), k, th)
        np.testing.assert_allclose(got, (np.cos(th) / k) ** 2, rtol=1e-10)

    def test_radial_kc_substitution(self, make_spectrum):
        s = SpectrumModel(12.566, 0.3)
        assert PhaseModel("radial_kc", 100.0).d_eta(s) == pytest.approx(200.0 / (7.0 * 12.566**2), rel=1e-10)
        assert PhaseModel("radial_dk", 5.0).d_eta(s) == pytest.approx(10.0 / (7.0 * 0.09), rel=1e-10)

    def test_transverse_gradient_sq(self, make_spectrum):
        s = make_spectrum(0.3)
        k, th = 10.0, 0.7
        got = phase_gradient_sq(PhaseModel("radial_kc", 4.0), s, k, th)
        assert got == pytest.approx(4.0 / s.k_c**2 * math.sin(th) ** 2, rel=1e-10)
        got = phase_gradient_sq(PhaseModel("radial_dk", 9.0), s, k, th)
        assert got == pytest.approx(9.0 / s.dk_ph**2 * math.sin(th) ** 2, rel=1e-10)
        got = phase_gradient_sq(PhaseModel("polar_linear", 3.0 / 14.0), s, k, th)
        assert got == pytest.approx((math.cos(th) / k) ** 2, rel=1e-12)

    def test_gradient_sq_shape(self, make_spectrum):
        # every variant gives the broadcast shape of (k, theta)
        s = make_spectrum(0.3)
        k, th = np.array([[10.0], [12.0]]), np.array([[0.5, 1.0, 2.0]])
        for phase in (
            PhaseModel(),
            PhaseModel("polar_linear", 0.1),
            PhaseModel("radial_kc", 4.0),
            PhaseModel("radial_dk", 9.0),
        ):
            assert phase_gradient_sq(phase, s, k, th).shape == (2, 3), phase
        assert np.all(phase_gradient_sq(PhaseModel(), s, k, th) == 0.0)

    # d_eta at dk_ph 0.3 and 1.7 and phase_gradient_sq at (k, theta) = (10, 0.3),
    # (12.5, 1.1), (15, 2.5), for k_c = 4 pi, as the four phase classes
    # that PhaseModel replaced computed them, each float as its repr
    PINNED = [
        ("zero", 0.0, ["0.0", "0.0"], [["0.0"] * 3, ["0.0"] * 3]),
        (
            "polar_linear",
            3.0 / 14.0,
            ["0.0013562071926531394", "0.0013325921835579692"],
            [["0.009126678074548391", "0.0013167964247828936", "0.0028525826343627245"]] * 2,
        ),
        (
            "radial_kc",
            100.0,
            ["0.18093068507560317", "0.18093068507560317"],
            [["0.05530375699222652", "0.5029650419296489", "0.22681311017697303"]] * 2,
        ),
        (
            "radial_dk",
            0.4,
            ["1.26984126984127", "0.03954522985664855"],
            [
                ["0.3881430779784926", "3.530002482789658", "1.59186181008172"],
                ["0.012087500698292158", "0.10993087316645994", "0.0495735511790155"],
            ],
        ),
    ]

    @pytest.mark.parametrize("variant,xi,d_eta,gradient_sq", PINNED, ids=[p[0] for p in PINNED])
    def test_values_pinned(self, variant, xi, d_eta, gradient_sq):
        phase = PhaseModel(variant, xi)
        k, th = np.array([10.0, 12.5, 15.0]), np.array([0.3, 1.1, 2.5])
        for dk, want_d, want_g in zip((0.3, 1.7), d_eta, gradient_sq):
            s = SpectrumModel(4.0 * math.pi, dk)
            assert repr(phase.d_eta(s)) == want_d
            assert [repr(v) for v in phase_gradient_sq(phase, s, k, th).tolist()] == want_g

    @pytest.mark.parametrize(
        "variant,xi,match",
        [
            ("spiral", 0.0, "unknown phase variant 'spiral'"),
            ("radial_kc", -1.0, "xi must be non-negative and finite, got -1.0"),
            ("polar_linear", math.inf, "xi must be non-negative and finite, got inf"),
            ("radial_dk", math.nan, "xi must be non-negative and finite, got nan"),
            ("zero", 100.0, "xi = 100.0 needs a variant other than zero"),
        ],
    )
    def test_rejects(self, variant, xi, match):
        with pytest.raises(DomainError, match=match):
            PhaseModel(variant, xi)

    @pytest.mark.parametrize("variant", ["zero", "polar_linear", "radial_kc", "radial_dk"])
    def test_zero_xi_adds_nothing(self, variant, make_spectrum):
        s = make_spectrum(0.3)
        assert PhaseModel(variant).d_eta(s) == 0.0
        assert np.all(phase_gradient_sq(PhaseModel(variant), s, np.array([10.0, 12.0]), 0.7) == 0.0)


def filter_norm(spectrum, weight):
    """n_f = 1 / int d3k w(k, theta) Gamma(k, theta) for a filter weight w."""
    th_nodes, th_wts = gauss_legendre_panels(0.0, math.pi, 12, 16)
    ang = th_wts * np.sin(th_nodes) * eval_f(th_nodes)

    def radial(k):
        w = np.broadcast_to(weight(k[:, None], th_nodes[None, :]), (k.size, th_nodes.size))
        return 2.0 * math.pi * k**2 * eval_g(spectrum, k) * (w @ ang)

    return 1.0 / integrate_1d(radial, spectrum.kmin, spectrum.kmax, rel_tol=1e-10, vectorized=True).value


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
        grid, _ = momentum_grid(b, s)
        # the grid's cells nearest (8, -9), (-1, 2) and (-6, 7.5)
        for i, j in ((113, 117), (89, 286), (76, 371)):
            qx, kx = grid.axis1[i], grid.axis2[j]
            rn, rw = gauss_legendre_panels(math.sqrt(max(kmin**2 - kx**2, 0.0)), math.sqrt(kmax**2 - kx**2), 16, 16)
            kv = np.stack(
                np.broadcast_arrays(kx, rn[:, None] * np.cos(bn)[None, :], rn[:, None] * np.sin(bn)[None, :]),
                axis=-1,
            )
            marginal = np.einsum("i,j,ij->", rw * rn, bw, eval_gamma_cartesian(s, kv))
            expect = float(psi_ini_x_sq(b.dq_perp, qx + kx)) * marginal
            assert grid.density[i, j] == pytest.approx(expect, rel=1e-8), (qx, kx)
