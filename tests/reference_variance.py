"""The relative-position variance by direct quadrature of its 3D
integrand, a reference for `measures.rel_pos_variance_closed`.

The closed form is what every command reports; this sums the integrand
it was derived from, on nodes of its own, from the analytic transverse
gradient `model.gamma_transverse_gradient` and the phase gradient
`phase_gradient_sq`. `TestRelPosVariance` in `test_measures.py` and
acceptance criterion 03 check the two agree.
"""

from __future__ import annotations

import math

import numpy as np

from clpair.constants import TWO_PI
from clpair.errors import ConvergenceError
from clpair.model import PhaseModel, gamma_transverse_gradient
from clpair.quadrature import gauss_legendre_panels

# tolerances of the quadrature's convergence check
VARIANCE_REL_TOL = 1e-6
VARIANCE_ABS_TOL = 1e-9


def phase_gradient_sq(phase: PhaseModel, spectrum, k, theta) -> np.ndarray:
    """(d eta/d k_x)^2 + (d eta/d k_y)^2 of `phase`'s eta at (k, theta), in
    the broadcast shape of the two: zero, (a cos(theta) / k)^2 for
    polar_linear, and (xi / s^2) sin^2(theta) for a radial eta."""
    if phase.variant == "zero":
        return np.zeros(np.broadcast(k, theta).shape)
    if phase.variant == "polar_linear":
        return (14.0 * phase.xi / 3.0) * (np.cos(theta) / k) ** 2
    scale = spectrum.k_c if phase.variant == "radial_kc" else spectrum.dk_ph
    _, theta = np.broadcast_arrays(k, theta)
    return (phase.xi / scale**2) * np.sin(theta) ** 2


def rel_pos_variance_quadrature(beam, spectrum, phase: PhaseModel = PhaseModel()) -> float:
    """Relative-position variance by direct quadrature of the 3D integrand.

    Spherical coordinates with the azimuth integrated analytically. The
    integrand is (|grad_perp Gamma|^2 / Gamma + 4 alpha kperp^2 Gamma /
    k^2) / 8 from the analytic transverse gradient, plus the transverse
    phase-gradient term for non-trivial phases. The nodes lie on k_y = 0,
    where dGamma/dk_y vanishes, so |grad_perp Gamma|^2 is (dGamma/dk_x)^2;
    Gamma is positive at every node of a spectrum inside the admissible
    box, so the ratio needs no guard. The variance's
    other term, -2 laplacian_perp(Gamma) / 8, is a transverse divergence: it
    integrates to the flux of grad_perp Gamma through the radial window's
    edges, where g is exp(-TRUNCATION_SIGMAS^2 / 2) of its peak, so it is
    not summed. Evaluated on 6 and on 9 16-node panels per axis; the
    refined value is returned once it is within max(VARIANCE_ABS_TOL,
    VARIANCE_REL_TOL |refined|) of the base one, and ConvergenceError,
    carrying both, is raised otherwise.
    """
    def value(n_panels):
        kn, kw = gauss_legendre_panels(spectrum.kmin, spectrum.kmax, n_panels)
        tn, tw = gauss_legendre_panels(0.0, math.pi, n_panels)
        kk = kn[:, None]
        tt = tn[None, :]
        kperp = kk * np.sin(tt)
        pts = np.stack(
            [np.broadcast_to(kperp, kperp.shape), np.zeros_like(kperp), kk * np.cos(tt)],
            axis=-1,
        )
        gam, gx, _ = gamma_transverse_gradient(spectrum, pts)
        core = (gx**2 / gam + 4.0 * beam.alpha * kperp**2 * gam / kk**2) / 8.0
        core = core + 0.5 * gam * phase_gradient_sq(phase, spectrum, kk, tt)
        meas = kw[:, None] * tw[None, :] * kk**2 * np.sin(tt)
        return TWO_PI * float(np.sum(meas * core))

    base, refined = value(6), value(9)
    if abs(refined - base) > max(VARIANCE_ABS_TOL, VARIANCE_REL_TOL * abs(refined)):
        raise ConvergenceError(
            f"variance quadrature did not converge (estimates {base:.6e}, {refined:.6e})",
            best_estimate=refined,
            previous_estimate=base,
        )
    return refined
