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
from .model import BeamParams, SpectrumModel, eval_g, psi_ini_x_sq
from .quadrature import gauss_legendre_edges, gauss_legendre_panels

# points of the k_x grid of both joint grids; even, so that the position
# grid's T is a quadratic form of the kernel on the N_KX / 2 point half-axis
N_KX = 512
# least number of x_el points of the position grid
N_X_EL = 141
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

    def moments(self, combine) -> tuple[float, float]:
        """Mean and variance of combine(axis1, axis2) under the density.

        `combine` is evaluated on one block of rows at a time, a
        1/_MOMENT_BLOCKS share of the grid, so no temporary is larger.
        """
        w1, w2 = _trapezoid_weights(self.axis1), _trapezoid_weights(self.axis2)
        rows = max(1, -(-self.axis1.size // _MOMENT_BLOCKS))
        first = second = 0.0
        for i in range(0, self.axis1.size, rows):
            v = combine(self.axis1[i : i + rows, None], self.axis2[None, :])
            dv = self.density[i : i + rows] * v
            first += float(w1[i : i + rows] @ (dv @ w2))
            dv *= v
            second += float(w1[i : i + rows] @ (dv @ w2))
            # freed here, or they would still be held while the next
            # block's are built
            del v, dv
        norm = self.integral()
        mean = first / norm
        return mean, second / norm - mean**2


# JointGrid.moments splits the rows into this many blocks
_MOMENT_BLOCKS = 16


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
    if not np.any(live):
        return out
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

def joint_momentum(beam: BeamParams, spectrum: SpectrumModel, qx, kx) -> np.ndarray:
    """Joint density P(q_x, k_x) (um^2): electron momentum envelope at
    q_x + k_x times the photon marginal; independent of the phase."""
    qx = np.asarray(qx, dtype=float)
    kxa = np.atleast_1d(np.asarray(kx, dtype=float))
    # one full-size buffer: the sum q_x + k_x, turned into the envelope
    # and scaled by the marginal in place
    g = photon_marginal_kx(spectrum, kxa)
    dens = qx + kxa
    psi_ini_x_sq(beam.dq_perp, dens, out=dens)
    dens *= g
    return dens


def momentum_grid(beam: BeamParams, spectrum: SpectrumModel) -> JointGrid:
    """P(q_x, k_x) on a grid covering the support of both factors.

    The q axis spans kmax + 6 dq_perp each side at 8 points per dq_perp,
    clipped to 65..4001 points. The cap keeps the grid under 16 MiB and
    changes no verdict: at (0.1, 30), where the uncapped rule would take
    158 MiB, q points lie 1.27 dq_perp apart, and the variance of q_x + k_x
    still misses dq_perp^2 by only 2.2e-6 of its 0.5% tolerance.
    """
    kmax = spectrum.kmax
    kxg = np.linspace(-kmax, kmax, N_KX)
    sig = beam.dq_perp
    span = kmax + 6.0 * sig
    n_q = int(np.clip(math.ceil(2.0 * span / (sig / 8.0)), 65, 4001))
    qxg = np.linspace(-span, span, n_q)
    dens = joint_momentum(beam, spectrum, qxg[:, None], kxg[None, :])
    return _check_normalized(JointGrid(qxg, kxg, dens), "joint momentum grid")


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
        e = edges[-1]
        # the positive root of w (e + w) = dk kmin, in a form without cancellation
        nxt = e + 2.0 * dk * kmin / (math.sqrt(e * e + 4.0 * dk * kmin) + e)
        if nxt >= r_max:
            break
        edges.append(nxt)
    e = edges.pop()
    n = max(1, math.ceil((r_max - e) / dk))
    return gauss_legendre_edges(np.concatenate((edges, np.linspace(e, r_max, n + 1))), 16)


def _beta_rule():
    """The position kernel's beta rule, 3 panels of 8 Gauss-Legendre nodes
    on [0, pi/2], as sin^2 beta and sqrt(w_beta) sin beta at each node."""
    bn, bw = gauss_legendre_panels(0.0, math.pi / 2.0, 3, 8)
    return np.sin(bn) ** 2, np.sqrt(bw) * np.sin(bn)


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


def _kernel_diagonal(spectrum: SpectrumModel, ax: np.ndarray) -> np.ndarray:
    """The position kernel's diagonal M(k_x, k_x) on `ax`, in closed form,
    checked against the photon marginal G(k_x).

    On the diagonal the longitudinal Gaussian is one and the beta sum of
    F_r F_r^T is elementary: with c = rho / k and S_n = sum_beta w_beta
    sin^(2n) beta, node rho adds f^2 (S_1 - c^2 S_2). M(k_x, k_x) = G(k_x)
    exactly, so a sum more than 1e-8 max G from G raises ConsistencyError.
    """
    sb2, wb = _beta_rule()
    s1, s2 = float(wb @ wb), float(wb @ (wb * sb2))
    diag = np.zeros(ax.size)
    for i0, _, c2, f2 in _kernel_nodes(spectrum, ax):
        c2 *= -s2
        c2 += s1
        c2 *= f2
        # node by node, the order in which h sums its diagonal
        for node in c2:
            diag[i0 : i0 + node.size] += node
    g_ref = photon_marginal_kx(spectrum, ax)
    scale = float(np.max(g_ref))
    if scale > 0.0 and float(np.max(np.abs(diag - g_ref))) > 1e-8 * scale:
        raise ConsistencyError("position kernel diagonal disagrees with the photon marginal")
    return diag


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
    outer edge rho. A row is zero where k_a leaves the spectrum's radial
    window [kmin, kmax]; at each node the live rows are one contiguous
    band of `ax`.

    The diagonal is summed first, in closed form, and checked against the
    photon marginal (`_kernel_diagonal`), so a point that fails the check
    raises ConsistencyError before any off-diagonal work. Then the nodes
    of each group of `_kernel_nodes` are summed in one batched pass over
    the group's union band, upper triangle only, _KERNEL_ROWS rows at a
    time; the nodes' blocks are added to h one after another, so each
    entry is summed in node order, as one node at a time would. h is
    then mirrored, so it is exactly symmetric. M depends on |k_x| and
    |k_x'| only, so h holds the kernel on the whole mirrored grid
    [-ax[::-1], ax], and T is a quadratic form of h (see `joint_position`).
    """
    _kernel_diagonal(spectrum, ax)
    sb2, wb = _beta_rule()
    alpha = beam.c_over_vz**2 / (8.0 * beam.dq_par**2)
    h = np.zeros((ax.size, ax.size))
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
            # longitudinal Gaussian, built in place in one buffer
            block = k[:, j : j + _KERNEL_ROWS, None] - k[:, None, j:]
            np.square(block, out=block)
            block *= -alpha
            np.exp(block, out=block)
            block *= np.matmul(ft[:, :, j : j + _KERNEL_ROWS].transpose(0, 2, 1), ft[:, :, j:])
            # a node's block is zero outside its own band, so adding the
            # blocks one at a time sums each entry in node order
            target = h[i0 + j : i0 + j + block.shape[1], i0 + j : i0 + k.shape[1]]
            for node in block:
                target += node
    _mirror_upper(h)
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
    dk_ph max(1, kmin / rho) at their outer edge (`_rho_rule`). Its
    diagonal is checked against the photon marginal first, so a point
    that fails that check raises ConsistencyError before the kernel's
    off-diagonal blocks, the lattice or T are built.

    Also returns T itself: the ascending distinct |x_el - x_ph| (um) that
    the grid reads, and T (um^-1) at each, the values the envelope
    multiplies.
    """
    # midpoint grid: uniform, excludes the exact endpoints; only its
    # positive half is built, so the grid is exactly odd
    dkx = 2.0 * spectrum.kmax / N_KX
    ax = (np.arange(N_KX // 2) + 0.5) * dkx
    kernel = _position_kernel(beam, spectrum, ax)

    sig_el = 1.0 / (2.0 * beam.dq_perp)
    sig_t = math.sqrt(rel_pos_variance_closed(beam, spectrum))
    # both axes live on a common lattice of pitch h so every difference
    # x_el - x_ph is itself a lattice point; T is evaluated once per lag
    h = min(sig_el, sig_t) / 10.0
    m_el = max(1, int(sig_el / (10.0 * h)))
    m_ph = max(1, int(sig_t / (10.0 * h)))
    i_el = max(N_X_EL // 2, math.ceil(7.0 * sig_el / (m_el * h)))
    i_ph = math.ceil((7.0 * sig_el + 7.0 * sig_t) / (m_ph * h))
    x_el = np.arange(-i_el, i_el + 1) * (m_el * h)
    x_ph = np.arange(-i_ph, i_ph + 1) * (m_ph * h)
    # |x_el - x_ph| in units of h at every grid point; T is even, so it is
    # evaluated once at each distinct |lag| the grid holds, ascending
    lag = np.arange(-i_el, i_el + 1)[:, None] * m_el - np.arange(-i_ph, i_ph + 1)[None, :] * m_ph
    np.abs(lag, out=lag)
    used = np.zeros(i_el * m_el + i_ph * m_ph + 1, dtype=bool)
    used[lag] = True
    lags = np.flatnonzero(used)
    t = 4.0 * dkx**2 * _t_at_lags(kernel, ax, lags, h)
    # the rank of each |lag| among the used ones indexes its T
    rank = np.cumsum(used) - 1
    t_grid = t[np.take(rank, lag, out=lag)]
    dens = (beam.dq_perp / math.sqrt(2.0 * math.pi**3)) * np.exp(-2.0 * beam.dq_perp**2 * x_el[:, None] ** 2) * t_grid
    floor = float(np.min(dens))
    if floor < -1e-9:
        raise ConsistencyError(f"joint position density has negative values down to {floor:.3e}")
    dens = np.maximum(dens, 0.0)
    return _check_normalized(JointGrid(x_el, x_ph, dens), "joint position grid"), lags * h, t
