"""Joint probability distributions along the transverse x direction.

Three observables:

* the photon transverse-momentum marginal G(k_x), the spectral density
  integrated over (k_y, k_z);
* the joint momentum density P(q_x, k_x), which factorizes into the
  initial electron momentum density at q_x + k_x times G(k_x);
* the joint position density P(x_el, x_ph), a Gaussian envelope in x_el
  times a Fourier-type transform over x_el - x_ph of the two-point
  spectral kernel M(k_x, k_x').

All densities integrate to one (checked by construction helpers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ANGULAR_NORM, NORMALIZATION_TOL
from .errors import ConsistencyError, DomainError
from .measures import rel_pos_variance_closed
from .model import BeamParams, SpectrumModel, check_admissible, eval_g, psi_ini_x_sq
from .quadrature import check_budget, gauss_legendre_edges, gauss_legendre_panels

# k_x points over [-kmax, kmax], with both endpoints on the momentum grid and
# the Schmidt oracle's axis, at midpoints on the position grid; even, so that
# the position grid's T is a quadratic form of the kernel on the half-axis
N_KX = 512
# lags of the position grid's T-lattice per block of its quadratic form,
# which bounds its two (block, N_KX / 2) matrices held at once to 8 MB
_LAG_BLOCK = 2048
# radial nodes of the position kernel per batched pass, and rows of their
# union band per block of its upper triangle: a (node, row, band) block of
# 8 x 32 x 256 takes 0.5 MB
_KERNEL_NODES = 8
_KERNEL_ROWS = 32


@dataclass(frozen=True)
class JointGrid:
    """A 2D probability density sampled on a rectangular grid.

    `axis1`/`axis2` are sorted sample positions; `density[i, j]` is the
    density at (axis1[i], axis2[j]). Units: um^-1 axes give um^2
    density, um axes give um^-2 density.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        a1, a2, d = map(np.asarray, (self.axis1, self.axis2, self.density))
        if d.shape != (a1.size, a2.size) or d.size == 0:
            raise DomainError("density shape must be (len(axis1), len(axis2)), with no empty axis")
        # every test below fails on a nan; min and max propagate it, so
        # the density needs no temporary of its size
        if not all(np.all(np.diff(a) > 0.0) and -math.inf < a[0] and a[-1] < math.inf for a in (a1, a2)):
            raise DomainError("grid axes must be finite and strictly increasing")
        if not (d.min() >= 0.0 and d.max() < math.inf):
            raise DomainError("density must be finite and non-negative")

    def integral(self) -> float:
        """Trapezoidal double integral of the density."""
        return float(_trapezoid_weights(self.axis1) @ (self.density @ _trapezoid_weights(self.axis2)))

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean (a 2-vector) and covariance (2 x 2) of (axis1, axis2) under
        the density, with the trapezoid weights of `integral`.

        One product of the density with w2 b^j (j = 0, 1, 2), for axis1 a,
        axis2 b and trapezoid weights w1, w2, gives its weighted sums rj
        over b, and the dot products of rj with w1 a^i every sum that is
        needed, so no temporary is as large as the grid. The variance of
        a + g b is then u C u with u = (1, g). Dot products of vectors,
        not a matrix product, take the sums over a: at the momentum grid's
        4001 rows that rounds var(q_x + k_x) 16 times less.
        """
        powers = np.arange(3)[:, None]
        r0, r1, r2 = (_trapezoid_weights(self.axis2) * self.axis2**powers) @ self.density.T
        v0, v1, v2 = _trapezoid_weights(self.axis1) * self.axis1**powers
        norm = v0 @ r0
        mean = np.array([v1 @ r0, v0 @ r1]) / norm
        return mean, np.array([[v2 @ r0, v1 @ r1], [v1 @ r1, v0 @ r2]]) / norm - np.outer(mean, mean)


def _trapezoid_weights(x) -> np.ndarray:
    """Weights w with w @ y the trapezoidal integral of samples y on the axis x."""
    half = 0.5 * np.diff(x)
    w = np.zeros(len(x))
    w[:-1] += half
    w[1:] += half
    return w


def _check_normalized(grid: JointGrid, what: str) -> JointGrid:
    total = grid.integral()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ConsistencyError(f"{what} integrates to {total:.6f}, outside 1 +/- {NORMALIZATION_TOL}")
    return grid


# ---------------------------------------------------------------------------
# photon transverse-momentum marginal

def photon_marginal_kx(spectrum: SpectrumModel, kx) -> np.ndarray:
    """Marginal G(k_x) (um) of the spectral density over (k_y, k_z).

    In polar coordinates (rho, beta) on the (k_y, k_z) plane the beta
    integral of the angular profile is elementary, leaving a 1D radial
    integral recast in k = sqrt(kx^2 + rho^2):

        G(kx) = (15/8) int k g(k) [p/k^2 - (3/4) p^2/k^4] dk,
        p = k^2 - kx^2.
    """
    kx = np.atleast_1d(np.asarray(kx, dtype=float))
    kmin, kmax = spectrum.kmin, spectrum.kmax
    out = np.zeros_like(kx)
    live = np.abs(kx) < kmax
    kxl = np.abs(kx[live])
    lo = np.maximum(kmin, kxl)
    # per-point Gauss-Legendre nodes mapped onto [lo, kmax]
    base_n, base_w = gauss_legendre_panels(0.0, 1.0, 8, 16)
    kk = lo[:, None] + (kmax - lo)[:, None] * base_n[None, :]
    ww = (kmax - lo)[:, None] * base_w[None, :]
    p = kk**2 - kxl[:, None] ** 2
    vals = (15.0 / 8.0) * kk * eval_g(spectrum, kk) * (p / kk**2 - 0.75 * p**2 / kk**4)
    out[live] = np.sum(ww * vals, axis=1)
    return out


# ---------------------------------------------------------------------------
# joint momentum distribution

def momentum_grid(beam: BeamParams, spectrum: SpectrumModel) -> tuple[JointGrid, np.ndarray]:
    """P(q_x, k_x) (um^2), the electron momentum envelope at q_x + k_x
    times the photon marginal G, on a grid covering the support of both
    factors; independent of the phase. Also returns G (um) on the grid's
    k axis.

    The q axis spans kmax + 6 dq_perp each side at 8 points per dq_perp,
    capped at 4001 points. The cap keeps the grid under 16 MiB and
    changes no verdict: at (0.1, 30), where the uncapped rule would take
    158 MiB, q points lie 1.27 dq_perp apart, and the variance of q_x + k_x
    still misses dq_perp^2 by only 2.2e-6 of its 0.5% tolerance.
    """
    kmax = spectrum.kmax
    kxg = np.linspace(-kmax, kmax, N_KX)
    sig = beam.dq_perp
    span = kmax + 6.0 * sig
    n_q = min(math.ceil(2.0 * span / (sig / 8.0)), 4001)
    qxg = np.linspace(-span, span, n_q)
    # G before the grid, so that its temporaries are freed first; one
    # full-size buffer: the sum q_x + k_x, turned into the envelope and
    # scaled by G in place
    g = photon_marginal_kx(spectrum, kxg)
    dens = qxg[:, None] + kxg
    psi_ini_x_sq(beam.dq_perp, dens, out=dens)
    dens *= g
    return _check_normalized(JointGrid(qxg, kxg, dens), "joint momentum grid"), g


# ---------------------------------------------------------------------------
# joint position distribution

def _rho_rule(spectrum: SpectrumModel, r_max: float):
    """Gauss-Legendre nodes and weights of the position kernel's rho
    integral on [0, r_max], in 16-node panels each no wider than
    dk_ph max(1, kmin / rho) at its outer edge rho.

    A row's integrand g(sqrt(a^2 + rho^2)) varies on the width dk_ph k / rho
    in rho, and a live row has k >= kmin, so the bound never exceeds that
    width. Below kmin - dk_ph each panel is the widest the bound allows,
    w = dk_ph kmin / (e + w) from its inner edge e; from there on the
    panels are equal and no wider than dk_ph. With kmin = 0 that is
    ceil(r_max / dk_ph) equal panels.
    """
    kmin, dk = spectrum.kmin, spectrum.dk_ph
    edges = [0.0]
    while edges[-1] + dk < kmin:
        # about kmin / (2 dk_ph) graded panels, so the budget is asked as they
        # are laid out, with a count the rule never falls below; 32 bytes a
        # node: rn, rw and `_kernel_nodes`' band ends lo and hi
        check_budget("position kernel rho nodes", 16 * len(edges), 32)
        e = edges[-1]
        # the positive root of w (e + w) = dk kmin, in a form without cancellation
        nxt = e + 2.0 * dk * kmin / (math.sqrt(e * e + 4.0 * dk * kmin) + e)
        if nxt >= r_max:
            break
        edges.append(nxt)
    e = edges.pop()
    n = math.ceil((r_max - e) / dk)
    check_budget("position kernel rho nodes", 16 * (len(edges) + n), 32)
    return gauss_legendre_edges(np.concatenate((edges, np.linspace(e, r_max, n + 1))), 16)


def _kernel_nodes(spectrum: SpectrumModel, ax: np.ndarray):
    """The rho nodes of `_rho_rule` on [0, sqrt(kmax^2 - ax[0]^2)],
    _KERNEL_NODES consecutive ones at a time. For each group this yields
    the start i0 of its union band of `ax` and, on that band, one row per
    node of k = sqrt(ax^2 + rho^2), c^2 = (rho / k)^2 and
    f^2 = 4 ANGULAR_NORM w_rho rho g(k) c^2, the last zero outside the
    node's own band."""
    kmax = spectrum.kmax
    rn, rw = _rho_rule(spectrum, math.sqrt(kmax**2 - ax[0] ** 2))
    lo = np.searchsorted(ax, np.sqrt(np.maximum(spectrum.kmin**2 - rn**2, 0.0)), side="left")
    hi = np.searchsorted(ax, np.sqrt(kmax**2 - rn**2), side="right")
    ax2, idx = ax**2, np.arange(ax.size)
    for g in range(0, rn.size, _KERNEL_NODES):
        nodes = slice(g, g + _KERNEL_NODES)
        i0, i1 = int(lo[nodes].min()), int(hi[nodes].max())
        r = rn[nodes, None]
        k = np.sqrt(ax2[i0:i1] + r**2)
        c2 = r / k
        np.square(c2, out=c2)
        f2 = (4.0 * ANGULAR_NORM) * rw[nodes, None] * r * eval_g(spectrum, k)
        f2 *= c2
        f2[(idx[i0:i1] < lo[nodes, None]) | (idx[i0:i1] >= hi[nodes, None])] = 0.0
        yield i0, k, c2, f2


def _position_kernel(beam: BeamParams, spectrum: SpectrumModel, ax: np.ndarray) -> np.ndarray:
    """Kernel M(k_x, k_x') (um^2 entries) on the ascending positive
    half-axis `ax`, as the block h[a, b] = M(ax[a], ax[b]).

    M = int dk_y dk_z sqrt(Gamma(k) Gamma(k')) exp(-(c/v)^2 (k-k')^2 /
    (8 dq_par^2)) with k' sharing (k_y, k_z). In polar (rho, beta)
    coordinates on the (k_y, k_z) plane, with k_a = sqrt(a^2 + rho^2) and
    cos(theta) = (rho / k_a) sin(beta), the integrand factorizes except
    for the longitudinal Gaussian, so on one rho grid shared by all pairs

        M(a, b) = sum_r w_r 4 ANGULAR_NORM r (F_r diag(w_beta sin^2 beta) F_r^T)[a, b]
                  * exp(-(c/v)^2 (k_a - k_b)^2 / (8 dq_par^2)),
        F_r[a, beta] = sqrt(g(k_a)) (r / k_a) sqrt(1 - (r / k_a)^2 sin^2 beta),

    one Gram matrix per radial node. The rho nodes are `_rho_rule`'s:
    16-node panels, each no wider than dk_ph max(1, kmin / rho) at its
    outer edge rho; the beta rule is 3 panels of 8 Gauss-Legendre nodes on
    [0, pi/2]. A row is zero where k_a leaves the spectrum's radial
    window [kmin, kmax]; at each node the live rows are one contiguous
    band of `ax`.

    The nodes of each group of `_kernel_nodes` are summed in one batched
    pass over the group's union band, upper triangle only, _KERNEL_ROWS
    rows at a time, each row block's node blocks added to h in one
    reduction. Each (node, row, band) block and its Gram matrices are
    written into two buffers allocated once, at the largest block's shape
    (_KERNEL_NODES, _KERNEL_ROWS, ax.size), so no block allocates or
    faults in fresh pages. h is then mirrored, so it is exactly
    symmetric. M depends on |k_x| and |k_x'| only, so h holds the kernel
    on the whole mirrored grid [-ax[::-1], ax], and T is a quadratic form
    of h (see `joint_position`). M(k_x, k_x) = G(k_x) exactly, so a
    diagonal of h more than 1e-8 max G from the photon marginal raises
    ConsistencyError.
    """
    # G before the walk, so that its temporaries are freed before h is built
    g_ref = photon_marginal_kx(spectrum, ax)
    bn, bw = gauss_legendre_panels(0.0, math.pi / 2.0, 3, 8)
    sb2, wb = np.sin(bn) ** 2, np.sqrt(bw) * np.sin(bn)
    # the kernel's longitudinal Gaussian is the square root of P_z's
    half_alpha = 0.5 * beam.alpha
    h = np.zeros((ax.size, ax.size))
    # the two block buffers, each of the largest block's size
    block_buf, gram_buf = np.empty((2, _KERNEL_NODES * _KERNEL_ROWS * ax.size))
    for i0, k, c2, f2 in _kernel_nodes(spectrum, ax):
        # F of every node, transposed, as the (node, beta, band) array ft,
        # scaled by sqrt(w_beta sin^2 beta) so that F F^T needs no weight
        ft = c2[:, None, :] * -sb2[:, None]
        ft += 1.0
        ft *= f2[:, None, :]
        np.sqrt(ft, out=ft)
        ft *= wb[:, None]
        for j in range(0, k.shape[1], _KERNEL_ROWS):
            # the block's Gram matrices, one per node, times the
            # longitudinal Gaussian, built in place in views of the buffers;
            # k_a - k_b is the rows copied in, less the band, since
            # np.subtract into a given out runs slower on these shapes
            rows = k[:, j : j + _KERNEL_ROWS]
            shape = (k.shape[0], rows.shape[1], k.shape[1] - j)
            block = block_buf[: math.prod(shape)].reshape(shape)
            gram = gram_buf[: block.size].reshape(shape)
            np.copyto(block, rows[:, :, None])
            block -= k[:, None, j:]
            np.square(block, out=block)
            block *= -half_alpha
            np.exp(block, out=block)
            block *= np.matmul(ft[:, :, j : j + _KERNEL_ROWS].transpose(0, 2, 1), ft[:, :, j:], out=gram)
            # a node's block is zero outside its own band; the running sum
            # joins the first node's block, so one reduction adds the group
            target = h[i0 + j : i0 + j + block.shape[1], i0 + j : i0 + k.shape[1]]
            block[0] += target
            np.add.reduce(block, axis=0, out=target)
    _mirror_upper(h)
    if float(np.max(np.abs(np.diagonal(h) - g_ref))) > 1e-8 * float(np.max(g_ref)):
        raise ConsistencyError("position kernel diagonal disagrees with the photon marginal")
    return h


def _mirror_upper(h: np.ndarray) -> None:
    """Copy the upper triangle of the square h onto its lower triangle in place."""
    np.copyto(h, h.T, where=np.tri(h.shape[0], k=-1, dtype=bool))


def _t_at_lags(kernel: np.ndarray, ax: np.ndarray, lags: np.ndarray, h: float) -> np.ndarray:
    """u^T kernel u with u = cos(ax s) at s = lags * h, _LAG_BLOCK lags at a
    time; a lone last lag joins the block before it, since a one-row
    u @ kernel is a BLAS gemv, whose last bit differs from gemm's."""
    t = np.empty(lags.size)
    ends = list(range(_LAG_BLOCK, lags.size - 1, _LAG_BLOCK)) + [lags.size]
    for i, j in zip([0] + ends, ends):
        u = np.cos(np.multiply.outer(lags[i:j] * h, ax))
        t[i:j] = np.einsum("ij,ij->i", u @ kernel, u)
    return t


def joint_position(beam: BeamParams, spectrum: SpectrumModel) -> tuple[JointGrid, np.ndarray, np.ndarray]:
    """P(x_el, x_ph) (um^-2) with the photonic phase neglected: the envelope
    (dq_perp / sqrt(2 pi^3)) exp(-2 dq_perp^2 x_el^2) times, at s = x_el - x_ph,
    T(s) = dkx^2 sum_pq M(k_p, k_q) cos((k_p - k_q) s) over N_KX k_x points
    mirrored exactly about zero. M is even in each argument and
    cos(A - B) + cos(A + B) = 2 cos A cos B, so T(s) = 4 dkx^2 u^T h u with
    u = cos(ax s) and h the kernel on the positive half-axis `ax` (see
    `_position_kernel`). T is even, so it is evaluated at lags >= 0 only.

    The kernel's rho integral runs on 16-node panels no wider than
    dk_ph max(1, kmin / rho) at their outer edge (`_rho_rule`), and its
    diagonal is checked against the photon marginal. The lattice is sized
    first, and `check_budget` passes its cells and its lags before the
    kernel is built. A point outside the admissible box
    (`check_admissible`) raises DomainError before the lattice is sized.

    Also returns T itself: the ascending distinct |x_el - x_ph| (um) that
    the grid reads, and T (um^-1) at each, the values the envelope
    multiplies.
    """
    check_admissible(beam, spectrum)
    sig_el = 1.0 / (2.0 * beam.dq_perp)
    sig_t = math.sqrt(rel_pos_variance_closed(beam, spectrum))
    # both axes live on a common lattice of pitch h so every difference
    # x_el - x_ph is itself a lattice point; T is evaluated once per lag
    h = min(sig_el, sig_t) / 10.0
    m_el = max(1, int(sig_el / (10.0 * h)))
    m_ph = max(1, int(sig_t / (10.0 * h)))
    i_el = math.ceil(7.0 * sig_el / (m_el * h))
    i_ph = math.ceil((7.0 * sig_el + 7.0 * sig_t) / (m_ph * h))
    # the density and the lag of each cell, two 8-byte numbers a cell
    check_budget("position lattice cells", (2 * i_el + 1) * (2 * i_ph + 1), 16)
    # the index of the used lags spans every lag up to the largest: a flag
    # and an 8-byte rank a lag, `used` and its cumsum
    n_lags = i_el * m_el + i_ph * m_ph + 1
    check_budget("position lattice lags", n_lags, 9)
    # midpoint grid: uniform, excludes the exact endpoints; only its
    # positive half is built, so the grid is exactly odd
    dkx = 2.0 * spectrum.kmax / N_KX
    ax = (np.arange(N_KX // 2) + 0.5) * dkx
    kernel = _position_kernel(beam, spectrum, ax)
    x_el = np.arange(-i_el, i_el + 1) * (m_el * h)
    x_ph = np.arange(-i_ph, i_ph + 1) * (m_ph * h)
    # |x_el - x_ph| in units of h at every grid point; T is even, so it is
    # evaluated once at each distinct |lag| the grid holds, ascending
    lag = np.arange(-i_el, i_el + 1)[:, None] * m_el - np.arange(-i_ph, i_ph + 1)[None, :] * m_ph
    np.abs(lag, out=lag)
    used = np.zeros(n_lags, dtype=bool)
    used[lag] = True
    lags = np.flatnonzero(used)
    t = 4.0 * dkx**2 * _t_at_lags(kernel, ax, lags, h)
    # the rank of each |lag| among the used ones indexes its T
    rank = np.cumsum(used)
    rank -= 1
    dens = t[np.take(rank, lag, out=lag)]
    del lag
    # the envelope times T, multiplied and clipped in T's lattice buffer
    dens *= (beam.dq_perp / math.sqrt(2.0 * math.pi**3)) * np.exp(-2.0 * beam.dq_perp**2 * x_el[:, None] ** 2)
    floor = float(np.min(dens))
    if floor < -1e-9:
        raise ConsistencyError(f"joint position density has negative values down to {floor:.3e}")
    np.maximum(dens, 0.0, out=dens)
    return _check_normalized(JointGrid(x_el, x_ph, dens), "joint position grid"), lags * h, t
