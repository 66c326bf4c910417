"""The purity t-sum as a quadratic form per t-node, a reference for
`measures._purity_once`.

The same radial nodes, longitudinal weights W, tail cut and t-grid as
`_purity_once`, imported rather than repeated; but each 1024-node block
forms W @ H, then every node's quadratic form H_t^T W H_t, H_t = phi h_t,
with an einsum, and sums them against the t-weights c_t = w_t t
exp(-b^2 t^2). `_purity_once` instead scales its blocks by sqrt(c_t), sums
one Gram matrix G = sum_t c_t h_t h_t^T and returns phi^T (G o W) phi;
`TestPurityGramForm` in `test_measures.py` checks the two agree within a
few ulps.
"""

from __future__ import annotations

import math

import numpy as np

from clpair.constants import PURITY_ABS_TOL, TWO_PI
from clpair.measures import _NODES_PER_PERIOD, _T_SPAN, _TAIL_FRACTION, _sonine_h, _t_cut
from clpair.model import eval_g
from clpair.quadrature import gauss_legendre_edges, gauss_legendre_panels, longitudinal_weights

BLOCK = 1024


def einsum_purity_once(beam, spectrum, radial_panels, refine=1.0):
    """8 pi^2 b^2 sum_t c_t H_t^T W H_t, H_t = phi h_t, on `_purity_once`'s grid."""
    kn, kw = gauss_legendre_panels(spectrum.kmin, spectrum.kmax, radial_panels, 16)
    weights = longitudinal_weights(radial_panels, (spectrum.kmax - spectrum.kmin) / radial_panels, beam.alpha)
    b = beam.dq_perp
    t_max = _T_SPAN / b
    n_t = refine * _NODES_PER_PERIOD * spectrum.kmax * t_max / TWO_PI
    phi = kn**2 * eval_g(spectrum, kn)
    n_panels = max(2, math.ceil(n_t / 16))
    r = phi * np.maximum(kw, np.sqrt(np.diagonal(weights)))
    n_keep = _t_cut(kn, r, b, t_max, n_panels, _TAIL_FRACTION * PURITY_ABS_TOL)
    tn, tw = gauss_legendre_edges(np.arange(n_keep + 1) * (t_max / n_panels), 16)
    ct = tw * tn * np.exp(-((b * tn) ** 2))
    total = 0.0
    for s in range(0, tn.size, BLOCK):
        h = _sonine_h(np.multiply.outer(kn, tn[s : s + BLOCK]))
        h *= phi[:, None]
        total += float(ct[s : s + BLOCK] @ np.einsum("it,it->t", h, weights @ h))
    return 8.0 * math.pi**2 * b**2 * total
