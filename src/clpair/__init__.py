"""Electron-photon pair entanglement diagnostics for coherent
cathodoluminescence (transition-radiation) emission.

The package models the post-emission scattered state of a free electron
and the photon it radiated, and quantifies their entanglement through
subsystem purity, the Schmidt number, and an EPR-type uncertainty
product for the (relative position, total transverse wavevector) pair.

Importing the package loads no numpy: each public name below is imported
from its module on first use (PEP 562).
"""

import importlib
import os

# OpenBLAS reads this once, when numpy first loads it. The products here
# are small (at most a few hundred rows), and a second BLAS thread costs
# more CPU than it saves on them: it roughly doubles a sweep's CPU time at
# no wall gain. A value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "ELECTRON_REST_KEV": "constants",
    "HBARC_KEV_UM": "constants",
    "ConfigError": "errors",
    "ConsistencyError": "errors",
    "ConvergenceError": "errors",
    "DomainError": "errors",
    "ResolutionError": "errors",
    "BeamParams": "model",
    "PhaseModel": "model",
    "SpectrumModel": "model",
    "derive_kinematics": "model",
    "eval_gamma": "model",
    "spectrum_normalization": "model",
    "wavelength_to_wavenumbers": "model",
    "MeasureResult": "measures",
    "Regime": "measures",
    "classify_regime": "measures",
    "evaluate_point": "measures",
    "purity_sc": "measures",
    "purity_z": "measures",
    "rel_pos_variance_closed": "measures",
    "total_wavevector_variance": "measures",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
