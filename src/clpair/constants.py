"""Constants and shared defaults in the package's working units (keV, um).

Every module takes these from here, so that each is defined once; this
module imports nothing, so the CLI can use it without loading the
numerical modules.
"""

import math

# Electron rest energy, keV.
ELECTRON_REST_KEV = 510.999

# hbar * c in keV * um (0.197327 eV*um).
HBARC_KEV_UM = 0.197327e-3

TWO_PI = 2.0 * math.pi

# Normalization of the angular profile (15/8pi) (sin(theta) cos(theta))^2.
ANGULAR_NORM = 15.0 / (8.0 * math.pi)

# Half-width, in units of dk_ph, of the radial window [k_c - 8 dk_ph,
# k_c + 8 dk_ph] (cut at zero) on which every integral over the spectrum
# runs; the Gaussian beyond it is below exp(-32) of its peak.
TRUNCATION_SIGMAS = 8.0

# The paper's regime thresholds: a subsystem purity below 2/3, and an EPR
# product D^2 below 1, the separability bound of Mancini et al., PRL 88
# (2002) 120401 and Giovannetti et al., PRA 67 (2003) 022320.
PURITY_THRESHOLD = 2.0 / 3.0
EPR_THRESHOLD = 1.0

# Tolerances of the P_sc and P_z quadratures. They decide the convergence
# verdict: the base and refined estimates must agree within
# max(PURITY_ABS_TOL, PURITY_REL_TOL * P). A value above one by at most
# max(PURITY_ABS_TOL, PURITY_REL_TOL) is clipped to one. P_sc's t-integral
# stops where its certified tail bound is below 1e-3 * PURITY_ABS_TOL.
PURITY_REL_TOL = 1e-4
PURITY_ABS_TOL = 5e-5

# Monte Carlo oracle: default seed, the oracle suite's sample pairs, and
# the fewest pairs whose standard error is meaningful.
MC_SEED = 20260824
MC_SAMPLES = 200_000
MC_MIN_SAMPLES = 10_000

# The largest grid one step may build, in bytes; `quadrature.check_budget`
# alone reads it. Each caller gives a grid's count and states the bytes an
# item holds at the call. A grid over it raises ResolutionError.
MAX_ARRAY_BYTES = 64 * 2**20

# How far from one a density grid's integral may be, as `dist` and the
# oracle suite's grid variances require.
NORMALIZATION_TOL = 0.01

# The admissible box. Every diagnostic depends on the beam and the spectrum
# only through three dimensionless groups (Buckingham's Pi theorem):
# u = dq_perp / k_c, w = dk_ph / k_c and l = dq_par (v/c) / k_c; k_c and
# the energy only set the doubles that carry them. `model` refuses a point
# outside the box with DomainError, and the CLI does so at load (exit 2).
# Inside it, every count a builder forms and every quantity the model
# derives (n_g, kmin, kmax, q0, c/v_z, alpha and the products named below)
# is a finite double; a finite count that is merely large is
# MAX_ARRAY_BYTES's to refuse. Each edge is where the quantity named
# beside it, computed as the library computes it, stops being finite (or
# positive), measured by bisection and rounded inward to a power of ten.
# The upper edges of u and l are the beam's small-recoil check, dq < q0.
#
# Kinetic energy (keV): below 10^-305.85, (c/v_z)^2, alpha's numerator,
# overflows. q0 is the upper edge of dq_par, and above 10^111.96 the
# purity passes' g = alpha (width / 2)^2 on 6 radial panels
# (`longitudinal_weights`) underflows to zero, at dq_par = dq_perp = q0,
# k_c = K_C_MIN and w = W_MIN; the edge stays at 10^73, inside it.
ENERGY_KEV_MIN = 1e-305
ENERGY_KEV_MAX = 1e73
# k_c from below: the edges of u and l are measured at k_c = K_C_MIN, so
# they bind first below it: at u = U_MIN, dq_perp^2 leaves the normal
# doubles below k_c = 10^-30.83, and at l = L_MIN, the top energy and
# dq_perp at q0, D^2 overflows below 10^-31.00. With u and l inside their
# edges, the first is the bracket of gamma_transverse_gradient (validate's
# gamma_partials_fd), which goes as 1 / (w^2 k_c^5) and at w = W_MIN
# overflows below k_c = 10^-55.58. The edge stays at 1e-30, so that k_c's
# range is symmetric about 1 um^-1.
K_C_MIN = 1e-30
K_C_MAX = 1e30
# l from below: D^2 = V dq_perp^2 holds 1 / (l k_c)^2 in V, and at the top
# energy, with dq_perp at q0 and k_c = K_C_MIN, it overflows below
# l = 10^-48.00.
L_MIN = 1e-47
# w from above: photon_marginal_kx forms kmax^4, kmax = k_c (1 + 8 w), which
# at k_c = K_C_MAX overflows from w = 10^46.16.
W_MAX = 1e46
# w from below: the radial window k_c +- 8 dk_ph narrows to a few doubles,
# and below w = 10^-16.91 (the worst of eight k_c from K_C_MIN to K_C_MAX)
# it is the one double k_c. longitudinal_weights, which both purities
# call, then divides by its g = alpha (width / 2)^2 = 0, and GammaSampler's
# CDF is 0 / 0. The edge stays at 1e-16, inside it. Within the box,
# purity_sc fails first: it forms phi from the absolute nodes k, rounded to
# an ulp of k_c, so at w = 1e-14 (k_c 12.566, dq_perp 0.3) its two passes
# differ and measure raises ConvergenceError (ROADMAP item 12).
W_MIN = 1e-16
# u from below: at k_c = K_C_MIN, dq_perp^2 (P_sc's b^2, D^2's
# var(q_x + k_x), the electron envelope's 2 dq_perp^2) leaves the normal
# doubles below u = 10^-123.83. dq_perp 1e-7 at the README k_c is u = 8e-9.
U_MIN = 1e-123
