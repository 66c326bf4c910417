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

# Monte Carlo oracle: default seed, default sample pairs of the oracle
# suite, and the fewest pairs whose standard error is meaningful.
MC_SEED = 20260824
MC_SAMPLES = 200_000
MC_MIN_SAMPLES = 10_000

# The largest arrays one step may build, in bytes: the purity t-grid's
# nodes and weights together, and the Schmidt oracle's amplitude. A step
# that would exceed it is refused with ResolutionError.
MAX_ARRAY_BYTES = 64 * 2**20

# How far from one a density grid's integral may be, as `dist` and the
# oracle suite's grid variances require.
NORMALIZATION_TOL = 0.01
