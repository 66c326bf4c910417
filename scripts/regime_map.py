#!/usr/bin/env python3
"""Reproduce the entanglement regime map over the (dq_perp, dk_ph) plane.

Sweeps the transverse-coherence / spectral-width plane for the
reference 200 keV scenario, writes the sweep CSV, the categorical
regime-map SVG, and heatmap SVGs of the purity and the uncertainty
product.

Usage: python scripts/regime_map.py [--out OUT] [--steps N]
"""

import argparse
from pathlib import Path

from clpair.cli import (
    RunConfig,
    SweepAxes,
    _render_rows,
    run_sweep,
    rows_to_csv,
)

DQ_PAR = 2.0 * 3.141592653589793 / 1.3
K_C = 2.0 * 3.141592653589793 / 0.5


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/regime_map", help="output directory")
    ap.add_argument("--steps", type=int, default=25, help="grid steps per axis")
    args = ap.parse_args()

    cfg = RunConfig(
        kinetic_energy_kev=200.0,
        dq_par=DQ_PAR,
        k_c=K_C,
        dk_ph=0.3,
        sweep=SweepAxes(0.1, 100.0, args.steps, 0.1, 30.0, args.steps),
    )
    rows = run_sweep(cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(rows_to_csv(rows))
    for field in ("regime", "purity_sc", "d2", "purity_z"):
        (out / f"{field}.svg").write_text(_render_rows(rows, field, cfg))
    errors = sum(r["regime"] == "error" for r in rows)
    print(f"wrote {len(rows)} cells to {out} ({errors} failed cells)")


if __name__ == "__main__":
    main()
