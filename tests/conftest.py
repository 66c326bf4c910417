import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
SRC = Path(__file__).resolve().parent.parent / "src"

from clpair import BeamParams, SpectrumModel

# Shared reference scenario: 200 keV beam, 0.5 um central wavelength,
# 1.3 um longitudinal coherence length.
K_KEV = 200.0
K_C = 2.0 * math.pi / 0.5
DQ_PAR = 2.0 * math.pi / 1.3


def src_env(env=None) -> dict:
    """A copy of `env` (by default os.environ) with this checkout's src/
    first on PYTHONPATH, for child interpreters that import clpair."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def window(spectrum: SpectrumModel, sigmas: float) -> tuple[float, float]:
    """The radial window [max(0, k_c - s dk_ph), k_c + s dk_ph] for s =
    `sigmas`, for reference integrals that take their own window rather
    than the spectrum's [kmin, kmax]."""
    return max(0.0, spectrum.k_c - sigmas * spectrum.dk_ph), spectrum.k_c + sigmas * spectrum.dk_ph


def schmidt_gaussian_closed(sig_g: float, dq_perp: float) -> float:
    """Closed 1D Schmidt purity (1 + sig_g^2/dq_perp^2)^(-1/2) of a Gaussian
    marginal of width sig_g: the reference for the Schmidt oracle."""
    return 1.0 / math.sqrt(1.0 + sig_g**2 / dq_perp**2)


@pytest.fixture(scope="session")
def make_beam():
    def _make(dq_perp: float, dq_par: float = DQ_PAR) -> BeamParams:
        return BeamParams(K_KEV, dq_perp, dq_par)

    return _make


@pytest.fixture(scope="session")
def make_spectrum():
    def _make(dk_ph: float, k_c: float = K_C) -> SpectrumModel:
        return SpectrumModel(k_c, dk_ph)

    return _make
