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

from .constants import ANGULAR_NORM
from .errors import ConsistencyError, DomainError
from .measures import rel_pos_variance_closed
from .model import BeamParams, SpectrumModel, ZeroPhase, eval_g, psi_ini_x_sq
from .quadrature import gauss_legendre_panels

# points of the k_x grid of both joint grids; even, so that the position
# kernel's grid mirrors exactly about zero
N_KX = 512
# least number of x_el points of the position grid
N_X_EL = 141
# lags of the position grid's T-lattice per block of its cosine sum, which
# bounds the (block, N_KX) matrix held at once to 8 MB
_LAG_BLOCK = 2048


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
    axis1_name: str = "axis1"
    axis2_name: str = "axis2"

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


def _check_normalized(grid: JointGrid, what: str, tol: float = 0.01) -> JointGrid:
    total = grid.integral()
    if not abs(total - 1.0) <= tol:
        raise ConsistencyError(f"{what} integrates to {total:.6f}, outside 1 +/- {tol}")
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
    """P(q_x, k_x) on a grid covering the support of both factors."""
    kmax = spectrum.kmax
    kxg = np.linspace(-kmax, kmax, N_KX)
    sig = beam.dq_perp
    span = kmax + 6.0 * sig
    n_q = int(np.clip(math.ceil(2.0 * span / (sig / 8.0)), 65, 4001))
    qxg = np.linspace(-span, span, n_q)
    dens = joint_momentum(beam, spectrum, qxg[:, None], kxg[None, :])
    return _check_normalized(
        JointGrid(qxg, kxg, dens, axis1_name="qx_um_inv", axis2_name="kx_um_inv"),
        "joint momentum grid",
    )


# ---------------------------------------------------------------------------
# joint position distribution

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

    one Gram matrix per radial node. A row is zero where k_a leaves the
    spectrum's radial window [kmin, kmax]; at each node the live rows are one
    contiguous band of `ax`, so each Gram matrix is band x band. M depends
    on |k_x| and |k_x'| only, so h holds the kernel on the whole grid
    [-ax[::-1], ax] that mirrors `ax` (see `_diagonal_sums`).
    """
    kmin, kmax = spectrum.kmin, spectrum.kmax
    # 16-node Gauss-Legendre panels no wider than dk_ph; with 8-node
    # panels the diagonal check already fails at dk_ph = 3.29, dq_perp = 1
    r_max = math.sqrt(kmax**2 - ax[0] ** 2)
    rn, rw = gauss_legendre_panels(0.0, r_max, max(1, math.ceil(r_max / spectrum.dk_ph)), 16)
    bn, bw = gauss_legendre_panels(0.0, math.pi / 2.0, 3, 8)
    sb2 = np.sin(bn) ** 2
    # F_r scaled by sqrt(w_beta sin^2 beta) on both sides, so the Gram
    # matrix F F^T needs no diagonal weight and is exactly symmetric
    wb = np.sqrt(bw) * np.sin(bn)
    alpha = beam.c_over_vz**2 / (8.0 * beam.dq_par**2)
    lo = np.searchsorted(ax, np.sqrt(np.maximum(kmin**2 - rn**2, 0.0)), side="left")
    hi = np.searchsorted(ax, np.sqrt(kmax**2 - rn**2), side="right")
    h = np.zeros((ax.size, ax.size))
    for r, w, i0, i1 in zip(rn, rw, lo, hi):
        k = np.sqrt(ax[i0:i1] ** 2 + r**2)
        c = r / k
        # the node weight 4 ANGULAR_NORM w r enters F as its square root
        f = np.sqrt(4.0 * ANGULAR_NORM * w * r * eval_g(spectrum, k)) * c
        f = f[:, None] * wb * np.sqrt(1.0 - c[:, None] ** 2 * sb2)
        # the band update is built in place in one band x band buffer, with
        # no further temporaries; f @ f.T is a BLAS syrk, so the Gram
        # matrix, and with it h, is exactly symmetric
        band = np.subtract.outer(k, k)
        np.square(band, out=band)
        band *= -alpha
        np.exp(band, out=band)
        band *= f @ f.T
        h[i0:i1, i0:i1] += band

    # diagonal consistency: M(kx, kx) must reproduce the marginal G(kx)
    g_ref = photon_marginal_kx(spectrum, ax)
    scale = float(np.max(g_ref))
    if scale > 0.0 and float(np.max(np.abs(np.diagonal(h) - g_ref))) > 1e-8 * scale:
        raise ConsistencyError("position kernel diagonal disagrees with the photon marginal")
    if float(np.max(np.abs(h - h.T))) > 1e-10:
        raise ConsistencyError("position kernel is not symmetric")
    return h


def _diagonal_sums(h: np.ndarray) -> np.ndarray:
    """Diagonal sums C_m = sum_p M[p, p + m], m = 0 .. 2n - 1, of the
    kernel M on the mirrored grid of 2n points whose positive half-axis
    block is the symmetric n x n `h`.

    Pairs in the same half give the diagonals of h, once for each half
    (M(-a, -b) = M(a, b)); pairs (-a, b) across zero lie a + b + 1
    points apart and give its anti-diagonals:
    C_m = 2 sum_i h[i, i + m] + sum_{a + b = m - 1} h[a, b].
    The rows of M are added in grid order, -ax[n - 1] first, each as the
    two pieces of h it is made of, so every C_m is summed in the same
    order as over the expanded 2n x 2n kernel, to the same bits.
    """
    n = h.shape[0]
    c = np.zeros(2 * n)
    for a in range(n - 1, -1, -1):
        # row -ax[a] of M is h[a, ::-1] then h[a]: its pairs (-a, -b),
        # b <= a, lie a - b apart, its pairs (-a, b) a + b + 1
        c[: a + 1] += h[a, a::-1]
        c[a + 1 : a + 1 + n] += h[a]
    for i in range(n):
        c[: n - i] += h[i, i:]
    return c


def _t_at_lags(c: np.ndarray, modes: np.ndarray, lags: np.ndarray, h: float) -> np.ndarray:
    """T(s) = sum_m c_m cos(modes_m s) at s = lags * h, _LAG_BLOCK lags at a time."""
    t = np.empty(lags.size)
    for i in range(0, lags.size, _LAG_BLOCK):
        phase = np.multiply.outer(lags[i : i + _LAG_BLOCK] * h, modes)
        t[i : i + _LAG_BLOCK] = np.cos(phase, out=phase) @ c
    return t


def joint_position(beam: BeamParams, spectrum: SpectrumModel) -> JointGrid:
    """P(x_el, x_ph) (um^-2) with the photonic phase neglected.

    Gaussian envelope (dq_perp / sqrt(2 pi^3)) exp(-2 dq_perp^2 x_el^2)
    times T(x_el - x_ph), the double cosine transform of the kernel
    M(k_x, k_x'). M is precomputed on the positive half of a uniform,
    exactly mirrored k_x grid of even size N_KX, as one Gram matrix per
    radial node on a rho grid shared by all pairs (see
    `_position_kernel`); T is summed over the kernel's diagonals (uniform
    spacing makes k_x - k_x' take only 2 N_KX - 1 values), taken from the
    half-axis block without expanding it. M is even and symmetric, so the
    diagonal sums C_m are even in m and T is even in the lag: both are
    evaluated for m >= 0 and lags >= 0 only.
    """
    # midpoint grid: uniform, excludes the exact endpoints; only its
    # positive half is built, so the grid is exactly odd
    dkx = 2.0 * spectrum.kmax / N_KX
    # T(s) = C_0 + 2 sum_{m > 0} C_m cos(m dkx s), C_m scaled by dkx^2
    c = _diagonal_sums(_position_kernel(beam, spectrum, (np.arange(N_KX // 2) + 0.5) * dkx))
    c *= dkx**2
    c[1:] *= 2.0
    modes = np.arange(N_KX) * dkx

    sig_el = 1.0 / (2.0 * beam.dq_perp)
    sig_t = math.sqrt(rel_pos_variance_closed(beam, spectrum, ZeroPhase()))
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
    t = _t_at_lags(c, modes, np.flatnonzero(used), h)
    # the rank of each |lag| among the used ones indexes its T
    rank = np.cumsum(used) - 1
    t = t[np.take(rank, lag, out=lag)]
    dens = (beam.dq_perp / math.sqrt(2.0 * math.pi**3)) * np.exp(-2.0 * beam.dq_perp**2 * x_el[:, None] ** 2) * t
    floor = float(np.min(dens))
    if floor < -1e-9:
        raise ConsistencyError(f"joint position density has negative values down to {floor:.3e}")
    dens = np.maximum(dens, 0.0)
    return _check_normalized(
        JointGrid(x_el, x_ph, dens, axis1_name="x_el_um", axis2_name="x_ph_um"),
        "joint position grid",
    )
