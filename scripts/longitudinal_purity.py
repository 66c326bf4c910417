#!/usr/bin/env python3
"""Longitudinal-subsystem purity versus spectral width.

Computes the purity of the electron's z degree of freedom as a
function of dk_ph for several longitudinal coherence lengths, and
reports where each curve crosses the entanglement threshold
`clpair.constants.PURITY_THRESHOLD` (2/3), relative to dq_par = 2 pi / L_par.

Usage: python scripts/longitudinal_purity.py [--out OUT]
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from clpair import BeamParams, SpectrumModel
from clpair.constants import PURITY_THRESHOLD
from clpair.measures import purity_z

K_C = 2.0 * math.pi / 0.5


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/longitudinal_purity", help="output directory")
    ap.add_argument("--points", type=int, default=41, help="dk_ph samples per curve")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "purity_z.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l_par_um", "dq_par_um_inv", "dk_ph_um_inv", "purity_z"])
        for l_par in (0.13, 1.3, 13.0):
            dq_par = 2.0 * math.pi / l_par
            beam = BeamParams(200.0, 1.0, dq_par)
            dks = dq_par * np.logspace(-1.5, 1.5, args.points)
            values = [purity_z(beam, SpectrumModel(K_C, dk)) for dk in dks]
            for dk, p in zip(dks, values):
                writer.writerow([l_par, repr(dq_par), repr(float(dk)), repr(p)])
            crossing = next((dk for dk, p in zip(dks, values) if p < PURITY_THRESHOLD), None)
            if crossing is None:
                print(f"L_par = {l_par:5} um: no 2/3 crossing in range")
            else:
                print(
                    f"L_par = {l_par:5} um: purity drops below 2/3 at "
                    f"dk_ph = {crossing:.3f} um^-1 ({crossing / dq_par:.2f} dq_par)"
                )
    print(f"wrote {out / 'purity_z.csv'}")


if __name__ == "__main__":
    main()
