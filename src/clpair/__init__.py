"""Electron-photon pair entanglement diagnostics for coherent
cathodoluminescence (transition-radiation) emission.

The package models the post-emission scattered state of a free electron
and the photon it radiated, and quantifies their entanglement through
subsystem purity, the Schmidt number, and an EPR-type uncertainty
product for the (relative position, total transverse wavevector) pair.
"""

import os

# OpenBLAS reads this once, when numpy first loads it. The products here
# are small (at most a few hundred rows), and a second BLAS thread costs
# more CPU than it saves on them: it roughly doubles a sweep's CPU time at
# no wall gain. A value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constants import ELECTRON_REST_KEV, HBARC_KEV_UM
from .errors import (
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    SingularPointError,
)
from .model import (
    BeamParams,
    PhaseModel,
    PolarLinearPhase,
    QuadratureSpec,
    RadialDkPhase,
    RadialKcPhase,
    SpectrumModel,
    ZeroPhase,
    derive_kinematics,
    eval_gamma,
    spectrum_normalization,
    wavelength_to_wavenumbers,
)
from .measures import (
    MeasureResult,
    Regime,
    RegimeThresholds,
    classify_regime,
    evaluate_point,
    purity_sc,
    purity_z,
    rel_pos_variance_closed,
    rel_pos_variance_quadrature,
    total_wavevector_variance,
)

__version__ = "0.1.0"
