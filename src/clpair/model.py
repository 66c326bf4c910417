"""Domain model: electron beam, luminescence spectrum, and photonic phase.

Working units throughout: lengths in um, wavenumbers in um^-1, energies
in keV. The luminescence spectrum is a Gaussian in |k| centered at k_c
with width dk_ph, times the transition-radiation angular profile
(15/8pi) (sin(theta) cos(theta))^2, normalized so that the full 3D
integral of the density is one.

The parameter types, kinematics and checks use only `math`, so building a
run's parameters loads no numpy; the densities and phase gradients, which
take arrays, import it when they are called.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Union

from .constants import ANGULAR_NORM, ELECTRON_REST_KEV, HBARC_KEV_UM, TRUNCATION_SIGMAS, TWO_PI
from .errors import DomainError, SingularPointError

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# kinematics and unit conversions

def derive_kinematics(kinetic_energy_kev: float) -> tuple[float, float]:
    """Central electron wavenumber q0 (um^-1) and c/v_z from kinetic energy.

    Relativistic kinematics: the momentum satisfies
    (pc)^2 = K^2 + 2 mc^2 K and c/v = (K + mc^2) / (pc).
    """
    if not 0.0 < kinetic_energy_kev < math.inf:
        raise DomainError(f"kinetic energy must be positive and finite, got {kinetic_energy_kev}")
    pc = math.sqrt(kinetic_energy_kev**2 + 2.0 * ELECTRON_REST_KEV * kinetic_energy_kev)
    q0 = pc / HBARC_KEV_UM
    c_over_vz = (kinetic_energy_kev + ELECTRON_REST_KEV) / pc
    return q0, c_over_vz


def wavelength_to_wavenumbers(lambda_c: float, dlambda: float) -> tuple[float, float]:
    """Convert central wavelength and spectral width (um) to k_c, dk_ph (um^-1)."""
    if not (lambda_c > 0.0 and dlambda > 0.0):
        raise DomainError("wavelength and width must be positive")
    k_c = TWO_PI / lambda_c
    dk_ph = TWO_PI * dlambda / lambda_c**2
    return k_c, dk_ph


def spectrum_normalization(k_c: float, dk_ph: float) -> float:
    """Normalization N_g (um^3) ensuring int_0^inf k^2 g(k) dk = 1."""
    if not (k_c > 0.0 and dk_ph > 0.0):
        raise DomainError("k_c and dk_ph must be positive")
    z = k_c / (math.sqrt(2.0) * dk_ph)
    inv = (
        math.sqrt(math.pi / 2.0) * dk_ph * (dk_ph**2 + k_c**2) * (math.erf(z) + 1.0)
        + k_c * dk_ph**2 * math.exp(-(z**2))
    )
    return 1.0 / inv


# ---------------------------------------------------------------------------
# beam

@dataclass(frozen=True)
class BeamParams:
    """Electron kinematics plus transverse/longitudinal wavenumber widths.

    `q0` and `c_over_vz` are derived from the kinetic energy at
    construction and cannot be set.
    """

    kinetic_energy_kev: float
    dq_perp: float
    dq_par: float
    q0: float = field(init=False)
    c_over_vz: float = field(init=False)

    def __post_init__(self):
        q0, c_over_vz = derive_kinematics(self.kinetic_energy_kev)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "c_over_vz", c_over_vz)
        # Small-recoil admissibility: dq << q0. Warn if dq exceeds q0/10,
        # reject outright if it exceeds q0 itself.
        for name in ("dq_perp", "dq_par"):
            dq = getattr(self, name)
            if not dq > 0.0:
                raise DomainError(f"{name} must be positive")
            if dq >= self.q0:
                raise DomainError(f"{name} = {dq} violates small-recoil assumption (q0 = {self.q0})")
            if dq > self.q0 / 10.0:
                warnings.warn(
                    f"{name} = {dq} is not small compared with q0 = {self.q0}; "
                    "small-recoil approximation is marginal",
                    stacklevel=2,
                )


def psi_ini_x_sq(dq_perp: float, qx, out: Optional[np.ndarray] = None) -> np.ndarray:
    """|psi_ini^(x)(qx)|^2 (um), the normalized 1D transverse momentum
    density of an electron beam of transverse width `dq_perp`, written to
    `out` (which may be `qx` itself) or to a new array."""
    import numpy as np

    qx = np.asarray(qx, dtype=float)
    # one output buffer, built in place; x^2 / (-c) is the same double as
    # -(x^2) / c, since negation is exact
    out = np.square(qx, out=np.empty_like(qx) if out is None else out)
    out /= -2.0 * dq_perp**2
    np.exp(out, out=out)
    out /= math.sqrt(TWO_PI) * dq_perp
    return out


# ---------------------------------------------------------------------------
# spectrum

@dataclass(frozen=True)
class SpectrumModel:
    """Parametric luminescence spectrum Gamma(k) = g(k) f(theta).

    Derived from k_c and dk_ph at construction, and not settable: the
    normalization `n_g` and the radial window [`kmin`, `kmax`] =
    [max(0, k_c - s dk_ph), k_c + s dk_ph], s = TRUNCATION_SIGMAS, on
    which every integral over the spectrum runs.
    """

    k_c: float
    dk_ph: float
    n_g: float = field(init=False)
    kmin: float = field(init=False)
    kmax: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.k_c < math.inf and 0.0 < self.dk_ph < math.inf):
            raise DomainError(f"k_c and dk_ph must be positive and finite, got {self.k_c!r}, {self.dk_ph!r}")
        object.__setattr__(self, "n_g", spectrum_normalization(self.k_c, self.dk_ph))
        object.__setattr__(self, "kmin", max(0.0, self.k_c - TRUNCATION_SIGMAS * self.dk_ph))
        object.__setattr__(self, "kmax", self.k_c + TRUNCATION_SIGMAS * self.dk_ph)


def eval_g(spectrum: SpectrumModel, k) -> np.ndarray:
    """Radial factor g(k) = N_g exp(-(k - k_c)^2 / (2 dk^2)) (um^3)."""
    import numpy as np

    k = np.asarray(k, dtype=float)
    return spectrum.n_g * np.exp(-((k - spectrum.k_c) ** 2) / (2.0 * spectrum.dk_ph**2))


def eval_f(theta) -> np.ndarray:
    """Angular profile f(theta) = (15/8pi) (sin theta cos theta)^2 (sr^-1)."""
    import numpy as np

    theta = np.asarray(theta, dtype=float)
    return ANGULAR_NORM * (np.sin(theta) * np.cos(theta)) ** 2


def eval_gamma(spectrum: SpectrumModel, k, theta) -> np.ndarray:
    """Spectral density Gamma(k, theta) (um^3)."""
    return eval_g(spectrum, k) * eval_f(theta)


def eval_gamma_cartesian(spectrum: SpectrumModel, k_vec) -> np.ndarray:
    """Gamma evaluated at Cartesian wavevector(s), shape (..., 3)."""
    import numpy as np

    k_vec = np.asarray(k_vec, dtype=float)
    kx, ky, kz = k_vec[..., 0], k_vec[..., 1], k_vec[..., 2]
    k = np.sqrt(kx**2 + ky**2 + kz**2)
    theta = np.arctan2(np.sqrt(kx**2 + ky**2), kz)
    return eval_gamma(spectrum, k, theta)


def gamma_cartesian_derivatives(spectrum: SpectrumModel, k_vec):
    """Gamma and its transverse Cartesian partials at wavevector(s).

    Returns (Gamma, dGx, dGy, d2Gxx, d2Gyy), each of the input's batch
    shape. Analytic chain rule through (k, theta); exact on the model
    family.
    """
    import numpy as np

    k_vec = np.asarray(k_vec, dtype=float)
    kx, ky, kz = (np.array(k_vec[..., i], dtype=float) for i in range(3))
    k = np.sqrt(kx**2 + ky**2 + kz**2)
    if np.any(k == 0.0):
        raise SingularPointError("Gamma derivatives are singular at k = 0")
    kperp = np.sqrt(kx**2 + ky**2)
    # On the polar axis the transverse partials have a direction-dependent
    # limit; nudge kx so the (kx, 0) approach is used, which reproduces the
    # correct transverse Laplacian.
    on_axis = kperp == 0.0
    if np.any(on_axis):
        kx = np.where(on_axis, 1e-9 * k, kx)
        kperp = np.sqrt(kx**2 + ky**2)
        k = np.sqrt(kx**2 + ky**2 + kz**2)

    # arctan2 keeps full precision for small polar angles, where
    # arccos(kz/k) loses half the mantissa
    theta = np.arctan2(kperp, kz)
    g = eval_g(spectrum, k)
    dk2 = spectrum.dk_ph**2
    gp = -(k - spectrum.k_c) / dk2 * g
    gpp = (((k - spectrum.k_c) / dk2) ** 2 - 1.0 / dk2) * g
    c4 = ANGULAR_NORM
    f = 0.25 * c4 * np.sin(2.0 * theta) ** 2
    fp = 0.5 * c4 * np.sin(4.0 * theta)
    fpp = 2.0 * c4 * np.cos(4.0 * theta)

    gam = g * f
    out_dg = []
    out_d2g = []
    for ka in (kx, ky):
        dk_dka = ka / k
        dth_dka = ka * kz / (k**2 * kperp)
        d2k_dka2 = 1.0 / k - ka**2 / k**3
        d2th_dka2 = (
            kz / (k**2 * kperp)
            - 2.0 * ka**2 * kz / (k**4 * kperp)
            - ka**2 * kz / (k**2 * kperp**3)
        )
        out_dg.append(gp * f * dk_dka + g * fp * dth_dka)
        out_d2g.append(
            gpp * f * dk_dka**2
            + gp * f * d2k_dka2
            + 2.0 * gp * fp * dk_dka * dth_dka
            + g * fpp * dth_dka**2
            + g * fp * d2th_dka2
        )
    return gam, out_dg[0], out_dg[1], out_d2g[0], out_d2g[1]


# ---------------------------------------------------------------------------
# phase models

def _check_xi(name: str, value: float) -> None:
    # a squared amplitude: a negative value would make D_eta negative
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be non-negative and finite, got {value!r}")


@dataclass(frozen=True)
class ZeroPhase:
    """eta(k) identically zero; D_eta = 0 exactly."""

    def d_eta(self, spectrum: SpectrumModel) -> float:
        """Phase contribution D_eta (um^2) to the relative-position variance."""
        return 0.0

    def gradient_sq(self, spectrum: SpectrumModel, k, theta) -> np.ndarray:
        """(d eta/d k_x)^2 + (d eta/d k_y)^2 at (k, theta), here zero."""
        import numpy as np

        return np.zeros(np.broadcast(k, theta).shape)


@dataclass(frozen=True)
class PolarLinearPhase:
    """eta depends linearly on the polar angle: eta(k) = a theta.

    `xi1` is the dimensionless angular integral
    pi * int sin(theta) cos^2(theta) f(theta) (d eta/d theta)^2 dtheta
    = (3/14) a^2, so a^2 = 14 xi1 / 3.
    """

    xi1: float

    def __post_init__(self):
        _check_xi("xi1", self.xi1)

    def d_eta(self, spectrum: SpectrumModel) -> float:
        """Phase contribution D_eta (um^2) to the relative-position variance."""
        z = spectrum.k_c / (math.sqrt(2.0) * spectrum.dk_ph)
        return float(self.xi1 * math.sqrt(math.pi / 2.0) * spectrum.n_g * spectrum.dk_ph * (math.erf(z) + 1.0))

    def gradient_sq(self, spectrum: SpectrumModel, k, theta) -> np.ndarray:
        """(d eta/d k_x)^2 + (d eta/d k_y)^2 = (a cos(theta) / k)^2."""
        import numpy as np

        return (14.0 * self.xi1 / 3.0) * (np.cos(theta) / k) ** 2


@dataclass(frozen=True)
class _RadialPhase:
    """eta(k) = sqrt(xi2) k / s, with s the spectrum's field named `_SCALE`."""

    _SCALE: ClassVar[str]
    xi2: float

    def __post_init__(self):
        _check_xi("xi2", self.xi2)

    def d_eta(self, spectrum: SpectrumModel) -> float:
        """Phase contribution D_eta (um^2) to the relative-position variance."""
        return 2.0 * self.xi2 / (7.0 * getattr(spectrum, self._SCALE) ** 2)

    def gradient_sq(self, spectrum: SpectrumModel, k, theta) -> np.ndarray:
        """(d eta/d k_x)^2 + (d eta/d k_y)^2 = (xi2 / s^2) sin^2(theta)."""
        import numpy as np

        _, theta = np.broadcast_arrays(k, theta)
        return (self.xi2 / getattr(spectrum, self._SCALE) ** 2) * np.sin(theta) ** 2


@dataclass(frozen=True)
class RadialKcPhase(_RadialPhase):
    """eta(k) = sqrt(xi2) k / k_c."""

    _SCALE = "k_c"


@dataclass(frozen=True)
class RadialDkPhase(_RadialPhase):
    """eta(k) = sqrt(xi2) k / dk_ph."""

    _SCALE = "dk_ph"


PhaseModel = Union[ZeroPhase, PolarLinearPhase, RadialKcPhase, RadialDkPhase]


# ---------------------------------------------------------------------------
# quadrature control and regime thresholds

@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the numeric integrators."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9

    def __post_init__(self):
        # written as `not ...` so that nan fails every check
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")
        if not 0.0 <= self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be non-negative and finite, got {self.abs_tol!r}")


#: Default tolerances for the purity quadrature. The refinement check is
#: absolute-dominated: the Monte Carlo oracle at 1e6 samples resolves
#: purity to a few 1e-4, so tighter defaults would buy nothing it can see.
PURITY_QUAD = QuadratureSpec(rel_tol=1e-4, abs_tol=5e-5)


@dataclass(frozen=True)
class RegimeThresholds:
    """Thresholds of the A/B/C regime classification."""

    purity_threshold: float = 2.0 / 3.0
    epr_threshold: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.purity_threshold < 1.0:
            raise DomainError(f"purity threshold must lie in (0, 1), got {self.purity_threshold!r}")
        if not 0.0 < self.epr_threshold < math.inf:
            raise DomainError(f"epr threshold must be positive and finite, got {self.epr_threshold!r}")
