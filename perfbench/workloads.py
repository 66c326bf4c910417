"""Workload inputs: the fixed plane, the point pools and their configs.

Every input a run uses comes from here and from the workload seed, and
every point any seed can pick has a frozen outcome in `reference.json`.
A run draws one round of calls and repeats it; see README.md for why
each workload exists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("plane-sweep", "grid-points", "point-session")

# README axes of the parameter plane (um^-1).
DQ_PERP_RANGE = (0.1, 100.0)
DK_PH_RANGE = (0.1, 30.0)

# plane-sweep: 4 x 3 log-spaced cells. Every dk_ph column holds four
# dq_perp cells; the plane holds alpha-path cells (dq_perp >= 10),
# u-path cells (dq_perp <= 1) and the slow corner (0.1, 30).
PLANE_STEPS = (4, 3)
# self-test plane: four cheap u-path cells
SMOKE_PLANE = ((0.3, 1.0, 2), (0.1, 0.3, 2))

# grid-points: a narrow-spectrum point and a wide-spectrum point, drawn
# log-uniformly once from POOL_SEED, in alternating dq_perp bands. The
# wide band starts at 3.3, where the seed's position-kernel check starts
# to fail (it fails for dk_ph >= 3.291 at every dq_perp), so one point of
# the two fails at seed. The points are fixed, not drawn per run: dist
# costs 1.7-5 s and varies twofold inside one band, so seed-drawn points
# made the spread of points_per_s over seeds 30% (measured); the seed
# sets their order.
GRID_DQ_BANDS = ((0.1, 10**0.5), (10**0.5, 100.0))
GRID_DK_BANDS = ((0.1, 0.55), (3.3, 30.0))
POOL_SEED = 20261017

# point-session: a fixed panel, because purity_sc costs 0.07-9 s
# depending on the point, so seed-drawn points would make a run's work
# depend on the seed. It holds a narrow-spectrum point where everything
# passes, the point where validate reports oracle FAILs, and a
# wide-spectrum point where validate raises ConsistencyError at seed.
SESSION_POINTS = (("s0", 0.3, 1.0), ("s1", 10.0, 2.0), ("s2", 1.0, 10.0))
# validate --seed values; the workload seed picks one per point. The seed
# sets the Monte Carlo draw and the random points of the gamma_partials_fd
# check, and that check fails at some points for some seeds: over seeds
# 0-59, at (10, 2) for 47 and at (0.3, 1) for 8 (measured). The pool holds
# seeds with the majority outcome at every point (FAIL at (10, 2), pass at
# (0.3, 1)), so that the failure share does not hang on the draw.
VALIDATE_SEEDS = (7, 11, 12)

BASE_INI = """\
[beam]
kinetic_energy_kev = 200.0
l_par_um = 1.3
dq_perp_um_inv = {dq_perp!r}

[spectrum]
lambda_c_um = 0.5
dk_ph_um_inv = {dk_ph!r}
"""

SWEEP_INI = """
[sweep]
dq_perp_min = {dq_min!r}
dq_perp_max = {dq_max!r}
dq_perp_steps = {dq_steps}
dk_ph_min = {dk_min!r}
dk_ph_max = {dk_max!r}
dk_ph_steps = {dk_steps}
"""


@dataclass(frozen=True)
class Point:
    pid: str
    dq_perp: float
    dk_ph: float

    def config(self) -> str:
        return BASE_INI.format(dq_perp=self.dq_perp, dk_ph=self.dk_ph)

    @property
    def key(self) -> str:
        """Reference key: the coordinates, so a moved point finds no stale entry."""
        return f"{self.dq_perp!r}|{self.dk_ph!r}"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `clpair <argv>` run in `workdir`, reading `config`."""

    op_id: str
    kind: str  # sweep | render | dist | measure | validate
    argv: tuple
    config: str
    workdir: str
    point: str
    ref_key: str = ""


@dataclass
class Round:
    invocations: list = field(default_factory=list)
    configs: dict = field(default_factory=dict)  # relative path -> text
    points: int = 0


def plane_config(plane=None) -> str:
    (dq_min, dq_max, dq_steps), (dk_min, dk_max, dk_steps) = plane or (
        (*DQ_PERP_RANGE, PLANE_STEPS[0]),
        (*DK_PH_RANGE, PLANE_STEPS[1]),
    )
    return BASE_INI.format(dq_perp=1.0, dk_ph=1.0) + SWEEP_INI.format(
        dq_min=dq_min, dq_max=dq_max, dq_steps=dq_steps, dk_min=dk_min, dk_max=dk_max, dk_steps=dk_steps
    )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}")


def grid_points() -> list:
    rng = random.Random(POOL_SEED)
    return [
        Point(f"g{i}", _log_uniform(rng, *GRID_DQ_BANDS[i % 2]), _log_uniform(rng, *dk_band))
        for i, dk_band in enumerate(GRID_DK_BANDS)
    ]


def session_points() -> list:
    return [Point(pid, dq, dk) for pid, dq, dk in SESSION_POINTS]


def make_round(workload: str, seed: int, threads: int, smoke: bool = False, tag: str = "r0") -> Round:
    """The calls of one round for workload seed `seed`; outputs go under `tag`."""
    rng = random.Random(f"{workload}/{seed}")
    rnd = Round()
    if workload == "plane-sweep":
        rnd.configs["plane.ini"] = plane_config(SMOKE_PLANE if smoke else None)
        out = f"{tag}/plane"
        rnd.invocations = [
            Invocation(f"{tag}/sweep", "sweep", ("sweep", "--threads", str(threads)), "plane.ini", out, "plane"),
            Invocation(f"{tag}/render", "render", ("render", "--field", "purity_sc"), "plane.ini", out, "plane"),
        ]
        rnd.points = math.prod(s[2] for s in SMOKE_PLANE) if smoke else math.prod(PLANE_STEPS)
        return rnd
    if workload == "grid-points":
        points = grid_points()[:1] if smoke else grid_points()
        rng.shuffle(points)
        for p in points:
            rnd.configs[f"{p.pid}.ini"] = p.config()
            rnd.invocations.append(
                Invocation(f"{tag}/{p.pid}/dist", "dist", ("dist",), f"{p.pid}.ini", f"{tag}/{p.pid}", p.pid, p.key)
            )
        rnd.points = len(points)
        return rnd
    if workload == "point-session":
        points = session_points()[:1] if smoke else session_points()
        rng.shuffle(points)
        for p in points:
            vseed = rng.choice(VALIDATE_SEEDS)
            rnd.configs[f"{p.pid}.ini"] = p.config()
            out = f"{tag}/{p.pid}"
            rnd.invocations += [
                Invocation(f"{tag}/{p.pid}/measure", "measure", ("measure",), f"{p.pid}.ini", out, p.pid, p.key),
                Invocation(
                    f"{tag}/{p.pid}/validate",
                    "validate",
                    ("validate", "--seed", str(vseed)),
                    f"{p.pid}.ini",
                    out,
                    p.pid,
                    f"{p.key}@{vseed}",
                ),
            ]
        rnd.points = len(points)
        return rnd
    raise ValueError(f"unknown workload {workload!r}")
