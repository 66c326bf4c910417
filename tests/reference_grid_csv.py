"""The per-value grid CSV writer, a byte reference for `write_grid_csv`.

Formats every number with Python's `repr`, one row at a time. The tests
compare the vectorized writer in `clpair.cli` against it on real grids.
"""

from __future__ import annotations


def write_grid_csv_per_value(grid, stream) -> None:
    """Write a JointGrid as CSV: the axis-2 values as header, one row per
    axis-1 value, every number as its repr."""
    stream.write(",".join([f"{grid.axis1_name}\\{grid.axis2_name}", *map(repr, grid.axis2.tolist())]) + "\n")
    for a1, drow in zip(grid.axis1.tolist(), grid.density):
        stream.write(",".join([repr(a1), *map(repr, drow.tolist())]) + "\n")
