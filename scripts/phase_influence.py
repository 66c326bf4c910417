#!/usr/bin/env python3
"""Influence of the undetermined spectral phase on the EPR contour.

The relative-position variance, and hence the D^2 = 1 contour, depends
on the phase model only through the additive D_eta term. Since the
variance is independent of dq_perp, the contour is dq_perp = var^(-1/2)
exactly; this script tabulates the contour for the zero phase and for
the three minimal phase models and reports how the vertical (large
dk_ph) segment moves.

Usage: python scripts/phase_influence.py [--out OUT]
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from clpair import BeamParams, SpectrumModel
from clpair.measures import rel_pos_variance_closed
from clpair.model import PolarLinearPhase, RadialDkPhase, RadialKcPhase, ZeroPhase

K_C = 2.0 * math.pi / 0.5
DQ_PAR = 2.0 * math.pi / 1.3

PHASES = [
    ("zero", ZeroPhase()),
    ("polar_linear_xi1_3_14", PolarLinearPhase(3.0 / 14.0)),
    ("radial_kc_xi2_1", RadialKcPhase(1.0)),
    ("radial_kc_xi2_100", RadialKcPhase(100.0)),
    ("radial_dk_xi2_1", RadialDkPhase(1.0)),
    ("radial_dk_xi2_100", RadialDkPhase(100.0)),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/phase_influence", help="output directory")
    ap.add_argument("--points", type=int, default=61, help="dk_ph samples")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    beam = BeamParams(200.0, 1.0, DQ_PAR)
    dks = np.logspace(-1.5, 2.5, args.points)

    with open(out / "epr_contour.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "dk_ph_um_inv", "contour_dq_perp_um_inv"])
        for name, phase in PHASES:
            contour = np.array(
                [
                    1.0 / math.sqrt(rel_pos_variance_closed(beam, SpectrumModel(K_C, dk), phase))
                    for dk in dks
                ]
            )
            for dk, dq in zip(dks, contour):
                writer.writerow([name, repr(float(dk)), repr(float(dq))])
            asymptote = contour[-1]
            vertical = int(np.sum(np.abs(contour / asymptote - 1.0) < 0.1))
            print(
                f"{name:24s} large-dk contour dq_perp = {asymptote:8.3f} um^-1, "
                f"vertical cells: {vertical}/{len(dks)}"
            )
    print(f"wrote {out / 'epr_contour.csv'}")


if __name__ == "__main__":
    main()
