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


# A sweep CSV over a 4 x 3 README plane, written by hand, with one failed
# cell; `render` reads it with no numerical work.
PLANE_CSV = """\
dq_perp_um_inv,dk_ph_um_inv,purity_sc,purity_z,var_rel_pos_um2,var_tot_wv_um_inv2,d2,schmidt_number,regime,longitudinal_entangled
0.1,0.1,0.000295,0.9996,7.153,0.01,0.07153,3389.8305084745764,A,false
0.1,1.7,0.000213,0.8922,0.0339,0.01,0.000339,4694.835680751174,A,false
0.1,30.0,3.4e-06,0.1544,0.00688,0.01,6.88e-05,294117.64705882355,A,true
1.0,0.1,0.0262,0.9996,7.153,1.0,7.153,38.16793893129771,B,false
1.0,1.7,0.0199,0.8922,0.0339,1.0,0.0339,50.25125628140704,A,false
1.0,30.0,nan,nan,nan,nan,nan,nan,error,
10.0,0.1,0.6727,0.9996,7.153,100.0,715.3,1.4865467518953471,C,false
10.0,1.7,0.5836,0.8922,0.0339,100.0,3.39,1.7135023989033585,B,false
10.0,30.0,0.0213,0.1544,0.00688,100.0,0.688,46.948356807511736,A,true
100.0,0.1,0.995,0.9996,7.153,10000.0,71530.0,1.0050251256281406,C,false
100.0,1.7,0.8879,0.8922,0.0339,10000.0,339.0,1.1262529564140106,C,false
100.0,30.0,0.1426,0.1544,0.00688,10000.0,68.8,7.012622720897616,B,true
"""


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
