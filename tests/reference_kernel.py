"""The position kernel summed over each radial node's whole band, a
reference for `distributions._position_kernel`.

The same beta rule as the kernel and, by default, its own rho rule
`_rho_rule`, imported rather than repeated; but every node adds its full
band x band Gram matrix f @ f.T (a BLAS syrk, so each update is exactly
symmetric) to h, one node at a time, with no batches, no blocks and no
mirror. The kernel sums only the upper triangle of batched node groups in
row blocks, each group in one reduction, and mirrors it;
`TestPositionKernelBlocks` in `test_distributions.py` checks the two agree
within 1e-15 of max|h|. Another `rho_rule`, such as
equal panels finer than the kernel's, gives the references the rho rule
is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from clpair.constants import ANGULAR_NORM
from clpair.distributions import _rho_rule
from clpair.model import eval_g
from clpair.quadrature import gauss_legendre_panels


def uniform_rho_rule(width_in_dk: float):
    """A rho rule of equal 16-node panels no wider than width_in_dk * dk_ph."""

    def rule(spectrum, r_max):
        return gauss_legendre_panels(0.0, r_max, max(1, math.ceil(r_max / (width_in_dk * spectrum.dk_ph))), 16)

    return rule


def position_kernel_full_band(beam, spectrum, ax: np.ndarray, rho_rule=_rho_rule) -> np.ndarray:
    """h[a, b] = M(ax[a], ax[b]) on the ascending positive half-axis `ax`,
    with the rho nodes rho_rule(spectrum, r_max)."""
    kmin, kmax = spectrum.kmin, spectrum.kmax
    rn, rw = rho_rule(spectrum, math.sqrt(kmax**2 - ax[0] ** 2))
    bn, bw = gauss_legendre_panels(0.0, math.pi / 2.0, 3, 8)
    sb2 = np.sin(bn) ** 2
    wb = np.sqrt(bw) * np.sin(bn)
    alpha = beam.c_over_vz**2 / (8.0 * beam.dq_par**2)
    lo = np.searchsorted(ax, np.sqrt(np.maximum(kmin**2 - rn**2, 0.0)), side="left")
    hi = np.searchsorted(ax, np.sqrt(kmax**2 - rn**2), side="right")
    h = np.zeros((ax.size, ax.size))
    for r, w, i0, i1 in zip(rn, rw, lo, hi):
        k = np.sqrt(ax[i0:i1] ** 2 + r**2)
        c = r / k
        f = np.sqrt(4.0 * ANGULAR_NORM * w * r * eval_g(spectrum, k)) * c
        f = f[:, None] * wb * np.sqrt(1.0 - c[:, None] ** 2 * sb2)
        band = np.subtract.outer(k, k)
        np.square(band, out=band)
        band *= -alpha
        np.exp(band, out=band)
        band *= f @ f.T
        h[i0:i1, i0:i1] += band
    return h
