"""Domain model: electron beam, luminescence spectrum, and photonic phase.

Working units throughout: lengths in um, wavenumbers in um^-1, energies
in keV. The luminescence spectrum is a Gaussian in |k| centered at k_c
with width dk_ph, times the transition-radiation angular profile
(15/8pi) (sin(theta) cos(theta))^2, normalized so that the full 3D
integral of the density is one.

The parameter types, kinematics and checks use only `math`, so building a
run's parameters loads no numpy; the densities and their gradient, which
take arrays, import it when they are called. No type here holds a
numerical tolerance: those are constants of `constants`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .constants import (
    ANGULAR_NORM,
    ELECTRON_REST_KEV,
    ENERGY_KEV_MAX,
    ENERGY_KEV_MIN,
    HBARC_KEV_UM,
    K_C_MAX,
    K_C_MIN,
    L_MIN,
    TRUNCATION_SIGMAS,
    TWO_PI,
    U_MIN,
    W_MAX,
    W_MIN,
)
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# the admissible box

def _check_edge(group: str, value: float, lo: float, hi: float = math.inf) -> None:
    """Refuse a value outside [lo, hi], nan included, with a DomainError
    that names the group, its value and the edge it crosses."""
    if not lo <= value <= hi:
        raise DomainError(f"{group} = {value!r} is outside the admissible box, past its edge {hi if value > hi else lo!r}")


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
    """Convert central wavelength and spectral width (um) to k_c, dk_ph (um^-1).

    k_c is checked against its edges first, so that lambda_c^2 is a
    positive finite double."""
    if not (lambda_c > 0.0 and dlambda > 0.0):
        raise DomainError("wavelength and width must be positive")
    k_c = TWO_PI / lambda_c
    _check_edge("k_c", k_c, K_C_MIN, K_C_MAX)
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

    `q0`, `c_over_vz` and the longitudinal scale `alpha` = (c/v_z)^2 /
    (4 dq_par^2) (um^2), the one coefficient of every longitudinal
    Gaussian exp(-alpha (k - k')^2), are derived at construction and cannot
    be set. The energy is checked against its edges before the kinematics
    are computed, and alpha must be a positive finite double.
    """

    kinetic_energy_kev: float
    dq_perp: float
    dq_par: float
    q0: float = field(init=False)
    c_over_vz: float = field(init=False)
    alpha: float = field(init=False)

    def __post_init__(self):
        _check_edge("kinetic energy (keV)", self.kinetic_energy_kev, ENERGY_KEV_MIN, ENERGY_KEV_MAX)
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
        # a dq_par whose square underflows to zero leaves alpha no finite value
        scale = 4.0 * self.dq_par**2
        alpha = self.c_over_vz**2 / scale if scale > 0.0 else math.inf
        if not 0.0 < alpha < math.inf:
            # alpha = 1 / (4 l^2 k_c^2) overflows only where l is below L_MIN at every admissible k_c
            raise DomainError(
                f"l = dq_par (v/c) / k_c is outside the admissible box, below its edge {L_MIN!r} at every admissible k_c: "
                f"dq_par = {self.dq_par!r} leaves alpha = (c/v_z)^2 / 4 dq_par^2 = {alpha!r}"
            )
        object.__setattr__(self, "alpha", alpha)


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
    which every integral over the spectrum runs. k_c and w = dk_ph / k_c
    are checked against the admissible box's edges before either is
    derived.
    """

    k_c: float
    dk_ph: float
    n_g: float = field(init=False)
    kmin: float = field(init=False)
    kmax: float = field(init=False)

    def __post_init__(self):
        _check_edge("k_c", self.k_c, K_C_MIN, K_C_MAX)
        _check_edge("w = dk_ph / k_c", self.dk_ph / self.k_c, W_MIN, W_MAX)
        object.__setattr__(self, "n_g", spectrum_normalization(self.k_c, self.dk_ph))
        object.__setattr__(self, "kmin", max(0.0, self.k_c - TRUNCATION_SIGMAS * self.dk_ph))
        object.__setattr__(self, "kmax", self.k_c + TRUNCATION_SIGMAS * self.dk_ph)


def check_admissible(beam: BeamParams, spectrum: SpectrumModel) -> None:
    """Refuse a point below the admissible box's lower edges in
    u = dq_perp / k_c and l = dq_par (v/c) / k_c (`U_MIN`, `L_MIN`).

    Their upper edges are the beam's small-recoil check, and k_c, w and the
    energy are checked by the spectrum and the beam themselves.
    """
    _check_edge("u = dq_perp / k_c", beam.dq_perp / spectrum.k_c, U_MIN)
    _check_edge("l = dq_par (v/c) / k_c", beam.dq_par / beam.c_over_vz / spectrum.k_c, L_MIN)


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


def gamma_transverse_gradient(spectrum: SpectrumModel, k_vec):
    """Gamma and its transverse partials (Gamma, dGamma/dk_x, dGamma/dk_y)
    at Cartesian wavevector(s), each of the input's batch shape.

    With f = C kperp^2 kz^2 / k^4 (C = 15/8pi), each partial is
    k_a [g'(k) f / k + 2 C g(k) kz^2 (kz^2 - kperp^2) / k^6]: finite on the
    polar axis, where both vanish. Gamma has no gradient at k = 0.
    """
    import numpy as np

    k_vec = np.asarray(k_vec, dtype=float)
    kx, ky, kz = k_vec[..., 0], k_vec[..., 1], k_vec[..., 2]
    kperp2 = kx**2 + ky**2
    k2 = kperp2 + kz**2
    if np.any(k2 == 0.0):
        raise DomainError("Gamma has no gradient at k = 0")
    k = np.sqrt(k2)
    # cos^2 and sin^2 of the polar angle, each a ratio that keeps full
    # precision near its own zero
    cz2, sz2 = kz**2 / k2, kperp2 / k2
    g = eval_g(spectrum, k)
    gam = g * ANGULAR_NORM * sz2 * cz2
    # the bracket of the docstring, which each partial is k_a times
    bracket = -(k - spectrum.k_c) / spectrum.dk_ph**2 * gam / k + 2.0 * ANGULAR_NORM * g * cz2 * (cz2 - sz2) / k2
    return gam, kx * bracket, ky * bracket


# ---------------------------------------------------------------------------
# phase model

# the phase variants, each the form of eta(k) documented on PhaseModel
_PHASE_VARIANTS = ("zero", "polar_linear", "radial_kc", "radial_dk")


@dataclass(frozen=True)
class PhaseModel:
    """The photonic spectral phase eta(k), which the paper leaves open.

    `variant` picks the form of eta and `xi` >= 0 its strength:
    - "zero": eta = 0, so D_eta = 0 exactly; xi must be 0;
    - "polar_linear": eta = a theta, linear in the polar angle; xi is the
      dimensionless angular integral
      pi * int sin(theta) cos^2(theta) f(theta) (d eta/d theta)^2 dtheta
      = (3/14) a^2, so a^2 = 14 xi / 3;
    - "radial_kc": eta = sqrt(xi) k / k_c;
    - "radial_dk": eta = sqrt(xi) k / dk_ph.
    """

    variant: str = "zero"
    xi: float = 0.0

    def __post_init__(self):
        if self.variant not in _PHASE_VARIANTS:
            raise DomainError(f"unknown phase variant {self.variant!r} (known: {', '.join(_PHASE_VARIANTS)})")
        # a squared amplitude: a negative value would make D_eta negative
        if not 0.0 <= self.xi < math.inf:
            raise DomainError(f"phase xi must be non-negative and finite, got {self.xi!r}")
        if self.variant == "zero" and self.xi != 0.0:
            raise DomainError(f"phase xi = {self.xi!r} needs a variant other than zero")

    def d_eta(self, spectrum: SpectrumModel) -> float:
        """Phase contribution D_eta (um^2) to the relative-position variance."""
        if self.variant == "zero":
            return 0.0
        if self.variant == "polar_linear":
            z = spectrum.k_c / (math.sqrt(2.0) * spectrum.dk_ph)
            return float(self.xi * math.sqrt(math.pi / 2.0) * spectrum.n_g * spectrum.dk_ph * (math.erf(z) + 1.0))
        # s of a radial eta = sqrt(xi) k / s
        scale = spectrum.k_c if self.variant == "radial_kc" else spectrum.dk_ph
        return 2.0 * self.xi / (7.0 * scale**2)
