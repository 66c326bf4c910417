import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from clpair import BeamParams, SpectrumModel

# Shared reference scenario: 200 keV beam, 0.5 um central wavelength,
# 1.3 um longitudinal coherence length.
K_KEV = 200.0
K_C = 2.0 * math.pi / 0.5
DQ_PAR = 2.0 * math.pi / 1.3


@pytest.fixture(scope="session")
def make_beam():
    def _make(dq_perp: float, dq_par: float = DQ_PAR) -> BeamParams:
        return BeamParams.create(K_KEV, dq_perp, dq_par)

    return _make


@pytest.fixture(scope="session")
def make_spectrum():
    def _make(dk_ph: float, k_c: float = K_C) -> SpectrumModel:
        return SpectrumModel.create(k_c, dk_ph)

    return _make
