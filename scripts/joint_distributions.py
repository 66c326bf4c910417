#!/usr/bin/env python3
"""Joint electron-photon distributions at three transverse coherences.

For each transverse coherence length (wide, intermediate, narrow beam)
at fixed spectral width 0.3 um^-1, emits the joint position density
P(x_el, x_ph) and the joint momentum density P(q_x, k_x) as CSV grids,
plus the relative-position and total-momentum summary moments.

Usage: python scripts/joint_distributions.py [--out OUT]
"""

import argparse
import math
from pathlib import Path

from clpair import BeamParams, SpectrumModel
from clpair.cli import write_grid_csv
from clpair.distributions import JointGrid, joint_position, momentum_grid
from clpair.measures import rel_pos_variance_closed

K_C = 2.0 * math.pi / 0.5
DQ_PAR = 2.0 * math.pi / 1.3


def write_grid(path: Path, grid: JointGrid) -> None:
    # the CLI's grid CSV with csv.writer's default "\r\n" line ends
    with open(path, "w", newline="\r\n") as fh:
        write_grid_csv(grid, fh)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/joint_distributions", help="output directory")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for label, l_perp in (("wide", 20.0), ("mid", 1.5), ("narrow", 0.2)):
        beam = BeamParams(200.0, 2.0 * math.pi / l_perp, DQ_PAR)
        spectrum = SpectrumModel(K_C, 0.3)

        mg = momentum_grid(beam, spectrum)
        pg = joint_position(beam, spectrum)
        write_grid(out / f"momentum_{label}.csv", mg)
        write_grid(out / f"position_{label}.csv", pg)

        _, var_tot = mg.moments(lambda qx, kx: qx + kx)
        _, var_rel = pg.moments(lambda xe, xp: xe - xp)
        closed = rel_pos_variance_closed(beam, spectrum)
        print(
            f"L_perp = {l_perp:5} um: var(q_x + k_x) = {var_tot:.4f} "
            f"(dq_perp^2 = {beam.dq_perp**2:.4f}), "
            f"var(x_el - x_ph) = {var_rel:.4f} (closed form {closed:.4f})"
        )
    print(f"wrote grids to {out}")


if __name__ == "__main__":
    main()
