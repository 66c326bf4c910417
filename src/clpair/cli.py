"""Command-line interface: config handling, sweeps, serialization.

Subcommands (one verb per artifact): `measure` (single point), `sweep`
(parameter-plane CSV), `dist` (joint distribution grids), `regime-map`
(`sweep`'s CSV and JSON plus `render --field regime`'s SVG), `validate`
(oracle suite), `render` (SVG from a sweep CSV). `measure`, `sweep` and
`regime-map` write their rows through one function, `_write_rows`.

The config file is an INI-style key-value document; the only
environment override is CLPAIR_OUT (output directory). A sweep
evaluates its cells in row-major order in one process; `--threads` is
accepted on `sweep` and `regime-map` and ignored. Exit codes: 0 success,
1 cell or oracle failure, 2 configuration error; `_Main.invoke` maps
errors to them for every command.

The config layer here (`SweepAxes`, `RunConfig`, `load_config`,
`dump_config`, `csv_to_rows`) and `render` use no numpy. A command
imports its numerical modules only once its config has been read and
checked, so `render`, `--help` and a config error never load numpy.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import click

from . import __version__
from .constants import MC_MIN_SAMPLES, MC_SAMPLES, MC_SEED, TWO_PI
from .errors import ConfigError, ConsistencyError, ConvergenceError, DomainError, ResolutionError
from .model import (
    PURITY_QUAD,
    BeamParams,
    PhaseModel,
    PolarLinearPhase,
    QuadratureSpec,
    RadialDkPhase,
    RadialKcPhase,
    RegimeThresholds,
    SpectrumModel,
    ZeroPhase,
    wavelength_to_wavenumbers,
)

if TYPE_CHECKING:
    import numpy as np

    from .measures import MeasureResult

CSV_HEADER = [
    "dq_perp_um_inv",
    "dk_ph_um_inv",
    "purity_sc",
    "purity_z",
    "var_rel_pos_um2",
    "var_tot_wv_um_inv2",
    "d2",
    "schmidt_number",
    "regime",
    "longitudinal_entangled",
]


@dataclass(frozen=True)
class SweepAxes:
    dq_perp_min: float
    dq_perp_max: float
    dq_perp_steps: int
    dk_ph_min: float
    dk_ph_max: float
    dk_ph_steps: int

    def __post_init__(self):
        for lo, hi, n in (
            (self.dq_perp_min, self.dq_perp_max, self.dq_perp_steps),
            (self.dk_ph_min, self.dk_ph_max, self.dk_ph_steps),
        ):
            if not (0.0 < lo < hi < math.inf):
                raise ConfigError("sweep ranges must be positive and finite with min < max")
            if n < 2:
                raise ConfigError("sweep steps must be at least 2")

    def dq_perp_values(self) -> np.ndarray:
        import numpy as np

        return np.logspace(math.log10(self.dq_perp_min), math.log10(self.dq_perp_max), self.dq_perp_steps)

    def dk_ph_values(self) -> np.ndarray:
        import numpy as np

        return np.logspace(math.log10(self.dk_ph_min), math.log10(self.dk_ph_max), self.dk_ph_steps)


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters; construction rejects inadmissible values.

    The quadrature tolerances and regime thresholds are the library's own
    `QuadratureSpec` and `RegimeThresholds`, which check themselves.
    """

    kinetic_energy_kev: float
    dq_par: float
    k_c: float
    dk_ph: float
    dq_perp: Optional[float] = None
    phase_variant: str = "zero"
    phase_xi: float = 0.0
    sweep: Optional[SweepAxes] = None
    thresholds: RegimeThresholds = RegimeThresholds()
    quadrature: QuadratureSpec = PURITY_QUAD
    mc_samples: int = MC_SAMPLES
    mc_seed: int = MC_SEED
    out_dir: str = "."

    def __post_init__(self):
        if not 0.0 <= self.phase_xi < math.inf:
            raise ConfigError(f"[phase] xi must be non-negative and finite, got {self.phase_xi!r}")
        if self.phase_variant == "zero" and self.phase_xi != 0.0:
            raise ConfigError(f"[phase] xi = {self.phase_xi!r} needs a variant other than zero")
        if not self.mc_samples >= MC_MIN_SAMPLES:
            raise ConfigError(f"[quadrature] mc_samples must be at least {MC_MIN_SAMPLES}, got {self.mc_samples!r}")
        if not self.mc_seed >= 0:
            raise ConfigError(f"the Monte Carlo seed must be non-negative, got {self.mc_seed!r}")
        # fail fast with the model's own checks; a sweep supplies dq_perp per
        # cell, so without one dq_par stands in to check the energy and dq_par
        self.spectrum()
        self.phase()
        self.beam(self.dq_perp if self.dq_perp is not None else self.dq_par)

    def beam(self, dq_perp: Optional[float] = None) -> BeamParams:
        dq = dq_perp if dq_perp is not None else self.dq_perp
        if dq is None:
            raise ConfigError("this command needs beam.l_perp_um or beam.dq_perp_um_inv")
        return BeamParams(self.kinetic_energy_kev, dq, self.dq_par)

    def spectrum(self, dk_ph: Optional[float] = None) -> SpectrumModel:
        return SpectrumModel(self.k_c, dk_ph if dk_ph is not None else self.dk_ph)

    def phase(self) -> PhaseModel:
        if self.phase_variant == "zero":
            return ZeroPhase()
        if self.phase_variant == "polar_linear":
            return PolarLinearPhase(xi1=self.phase_xi)
        if self.phase_variant == "radial_kc":
            return RadialKcPhase(xi2=self.phase_xi)
        if self.phase_variant == "radial_dk":
            return RadialDkPhase(xi2=self.phase_xi)
        raise ConfigError(f"unknown phase variant {self.phase_variant!r}")


# ---------------------------------------------------------------------------
# config parsing


def _length(text: str) -> float:
    """A length (um) read as its wavenumber, 2 pi / length (um^-1)."""
    value = float(text)
    if not value > 0.0:
        raise ValueError(value)
    return TWO_PI / value


# every section and key of the config file, in the order dump_config
# writes them, each with the RunConfig field it fills (or "field.attribute"
# of the object a field holds) and how its text is read. A length fills the
# field of the wavenumber after it, the form dump_config writes.
_CONFIG_KEYS = {
    "beam": {
        "kinetic_energy_kev": ("kinetic_energy_kev", float),
        "l_par_um": ("dq_par", _length),
        "dq_par_um_inv": ("dq_par", float),
        "l_perp_um": ("dq_perp", _length),
        "dq_perp_um_inv": ("dq_perp", float),
    },
    "spectrum": {
        "lambda_c_um": ("k_c", _length),
        "k_c_um_inv": ("k_c", float),
        "dlambda_um": ("dk_ph", _length),  # a width: parse_config rescales it
        "dk_ph_um_inv": ("dk_ph", float),
    },
    "phase": {"variant": ("phase_variant", str), "xi": ("phase_xi", float)},
    "sweep": {
        "dq_perp_min": ("sweep.dq_perp_min", float),
        "dq_perp_max": ("sweep.dq_perp_max", float),
        "dq_perp_steps": ("sweep.dq_perp_steps", int),
        "dk_ph_min": ("sweep.dk_ph_min", float),
        "dk_ph_max": ("sweep.dk_ph_max", float),
        "dk_ph_steps": ("sweep.dk_ph_steps", int),
    },
    "thresholds": {"purity": ("thresholds.purity_threshold", float), "epr": ("thresholds.epr_threshold", float)},
    "quadrature": {
        "rel_tol": ("quadrature.rel_tol", float),
        "abs_tol": ("quadrature.abs_tol", float),
        "mc_samples": ("mc_samples", int),
        "mc_seed": ("mc_seed", int),
    },
    "output": {"out_dir": ("out_dir", str)},
}
# the fields that each section must fill when present; [beam] and [spectrum] must be
_REQUIRED = {
    "beam": ("kinetic_energy_kev", "dq_par"),
    "spectrum": ("k_c", "dk_ph"),
    "sweep": tuple(field for field, _ in _CONFIG_KEYS["sweep"].values()),
}
# how parse_config builds each object that a RunConfig field holds
_HOLDERS = {"sweep": SweepAxes, "thresholds": RegimeThresholds, "quadrature": partial(replace, PURITY_QUAD)}
_NOUNS = {float: "a number", int: "an integer", _length: "a positive number"}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a % in a value is itself
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(parser)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:  # a value whose derived quantities overflow
        raise ConfigError(f"a parameter is out of range: {exc}") from exc


def _check_known_keys(parser: configparser.ConfigParser) -> None:
    """Reject a section or key that parse_config does not read, so that a
    misspelt one is not silently dropped."""
    if parser.defaults():
        # configparser would copy these keys into every section
        raise ConfigError(f"[DEFAULT] is not read; move {', '.join(parser.defaults())} into its section")
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"[{section}]: unknown section (known: {', '.join(_CONFIG_KEYS)})")
        for key in parser[section]:
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key (known: {', '.join(_CONFIG_KEYS[section])})")


def parse_config(parser: configparser.ConfigParser) -> RunConfig:
    _check_known_keys(parser)
    if "beam" not in parser or "spectrum" not in parser:
        raise ConfigError("config must contain [beam] and [spectrum] sections")
    held, given = {"": {}}, {}  # {holder: {attribute: value}}, {field: its key}
    for where in parser.sections():
        keys, section = _CONFIG_KEYS[where], parser[where]
        for key, (field, read) in keys.items():
            if key not in section:
                continue
            if field in given:
                raise ConfigError(f"[{where}] needs exactly one of {given[field]} / {key}")
            holder, _, name = field.rpartition(".")
            try:
                held.setdefault(holder, {})[name] = read(section[key])
            except ValueError as exc:
                raise ConfigError(f"[{where}] {key}: not {_NOUNS[read]}") from exc
            given[field] = key
        for field in _REQUIRED.get(where, ()):
            if field not in given:
                raise ConfigError(f"[{where}] {' / '.join(k for k, (f, _) in keys.items() if f == field)}: missing")
    fields, spectrum = held.pop(""), parser["spectrum"]
    if "dlambda_um" in spectrum:
        # dk_ph = 2 pi dlambda / lambda_c^2, with lambda_c as given if it was
        lam = float(spectrum["lambda_c_um"]) if "lambda_c_um" in spectrum else TWO_PI / fields["k_c"]
        _, fields["dk_ph"] = wavelength_to_wavenumbers(lam, float(spectrum["dlambda_um"]))
    return RunConfig(**fields, **{holder: _HOLDERS[holder](**attrs) for holder, attrs in held.items()})


def dump_config(cfg: RunConfig) -> str:
    """Canonical config text; parse(dump(cfg)) == cfg."""
    parser = configparser.ConfigParser(interpolation=None)
    for where, keys in _CONFIG_KEYS.items():
        given = {}
        for key, (field, read) in keys.items():
            holder, _, name = field.rpartition(".")
            obj = getattr(cfg, holder) if holder else cfg
            if read is not _length and obj is not None and getattr(obj, name) is not None:
                given[key] = _fmt(getattr(obj, name))
        if given:
            parser[where] = given
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep machinery

def _cell_row(cfg: RunConfig, dq_perp: float, dk_ph: float, p_z: dict) -> dict:
    """Evaluate one sweep cell, as `evaluate_point` does; failures become
    an 'error' row.

    `purity_z` does not depend on dq_perp, so `p_z` keeps it by dk_ph and
    each column computes it once. It is still taken after the cell's
    `purity_sc`, so a cell where both fail reports the `purity_sc` error.
    A failed row keeps its reason under `error` and, for a quadrature
    that did not converge, its last two estimates; these keys go to the
    JSON record only, not to the CSV.
    """
    from .measures import _point_result, purity_sc, purity_z

    base = {"dq_perp_um_inv": dq_perp, "dk_ph_um_inv": dk_ph}
    try:
        beam, spectrum, phase = cfg.beam(dq_perp), cfg.spectrum(dk_ph), cfg.phase()
        p_sc = purity_sc(beam, spectrum, cfg.quadrature)
        if dk_ph not in p_z:
            p_z[dk_ph] = purity_z(beam, spectrum, cfg.quadrature)
        result = _point_result(beam, spectrum, phase, cfg.thresholds, p_sc, p_z[dk_ph])
    except (DomainError, ConvergenceError, ConsistencyError, ResolutionError) as exc:
        row = {
            **base,
            **dict.fromkeys(CSV_HEADER[2:-2], math.nan),
            "regime": "error",
            "longitudinal_entangled": "",
            "error": str(exc),
        }
        for key in ("best_estimate", "previous_estimate"):
            if getattr(exc, key, None) is not None:
                row[key] = getattr(exc, key)
        return row
    return {**base, **result_to_row(result)}


def result_to_row(result: MeasureResult) -> dict:
    return {
        "purity_sc": result.purity_sc,
        "purity_z": result.purity_z,
        "var_rel_pos_um2": result.var_rel_pos,
        "var_tot_wv_um_inv2": result.var_tot_wavevector,
        "d2": result.d2,
        "schmidt_number": result.schmidt_number,
        "regime": result.regime.value,
        "longitudinal_entangled": result.longitudinal_entangled,
    }


def run_sweep(cfg: RunConfig) -> list[dict]:
    """Evaluate every sweep cell in row-major order, in this process."""
    if cfg.sweep is None:
        raise ConfigError("sweep commands need a [sweep] section")
    p_z = {}
    return [
        _cell_row(cfg, float(dqp), float(dkp), p_z)
        for dqp in cfg.sweep.dq_perp_values()
        for dkp in cfg.sweep.dk_ph_values()
    ]


def _report_failures(rows: list[dict]) -> None:
    """Name each failed cell and its reason on stderr; exit 1 if any failed."""
    failures = [r for r in rows if r["regime"] == "error"]
    for r in failures:
        click.echo(f"cell ({r['dq_perp_um_inv']}, {r['dk_ph_um_inv']}) failed: {r['error']}", err=True)
    if failures:
        sys.exit(1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in CSV_HEADER])
    return buf.getvalue()


def write_grid_csv(grid, stream) -> None:
    """Write a JointGrid as CSV to a text stream, a block of rows at a
    time: the axis-2 values as header, one row per axis-1 value, every
    number as its shortest round-trip repr. No field holds a comma, quote
    or newline, so the lines are what csv.writer would write, without its
    quoting pass."""
    import numpy as np

    from ._floatrepr import repr_rows

    stream.write(f"{grid.axis1_name}\\{grid.axis2_name}," + repr_rows(grid.axis2[None, :]))
    # a row costs one for each value that enters the kernel and
    # 1/_CSV_ZERO_SHARE for each +0.0; the non-zeros are counted a few rows
    # at a time, with no grid-sized mask
    n, m = grid.density.shape
    step = -(-_CSV_BLOCK_VALUES // m)
    nonzero = np.concatenate([np.count_nonzero(grid.density[i : i + step], axis=1) for i in range(0, n, step)])
    # cost[i]: the cost of the rows before row i
    cost = np.concatenate(([0.0], np.cumsum(nonzero + 1 + (m - nonzero) / _CSV_ZERO_SHARE)))
    i = 0
    while i < n:
        # the block ends with the row that brings its cost to the budget, so
        # a grid with no +0.0 gets blocks of one shape, whose freed buffers
        # malloc reuses; blocks cut at fixed cost multiples, of varying row
        # counts, raised the peak RSS of dist by 1 MB at (0.263474, 0.210945)
        j = min(n, int(np.searchsorted(cost, cost[i] + _CSV_BLOCK_VALUES)))
        stream.write(repr_rows(np.column_stack((grid.axis1[i:j], grid.density[i:j]))))
        i = j


# write_grid_csv cuts its rows into blocks of about this cost. Formatting
# peaks near 160 bytes for each value that enters the kernel (0.65 MiB a
# block) and near 30 bytes for each +0.0, which skips it; counted at that
# share, an all-zero grid is not one block
_CSV_BLOCK_VALUES = 4096
_CSV_ZERO_SHARE = 5


def csv_to_rows(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {header!r}")
    rows = []
    for line, rec in enumerate(reader, start=2):
        if len(rec) != len(header):
            raise ConfigError(f"CSV line {line} has {len(rec)} fields, expected {len(header)}")
        row = dict(zip(header, rec))
        try:
            for key in CSV_HEADER[:-2]:
                row[key] = float(row[key])
        except ValueError as exc:
            raise ConfigError(f"CSV line {line}: {exc}") from exc
        row["longitudinal_entangled"] = row["longitudinal_entangled"] == "true"
        rows.append(row)
    return rows


def _provenance(cfg: RunConfig, **extra) -> dict:
    """Versions, config and the command's wall time so far; the CSVs
    carry none of it, so repeated runs still write identical CSVs."""
    return {
        "package_version": __version__,
        "python_version": platform.python_version(),
        # every command that writes provenance has loaded numpy by now
        "numpy_version": sys.modules["numpy"].__version__,
        "wall_seconds": time.perf_counter() - click.get_current_context().meta[_STARTED],
        "config_hash": config_hash(cfg),
        "config": dump_config(cfg),
        **extra,
    }


def _out_dir(cfg: RunConfig, cli_out: Optional[str]) -> Path:
    out = cli_out or os.environ.get("CLPAIR_OUT") or cfg.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rows(out_path: Path, name: str, cfg: RunConfig, rows: list[dict]) -> str:
    """Write `<name>.csv` and `<name>.json`: the CSV columns of `rows`, and
    the provenance with every key of every row, so that a failed cell
    keeps its reason. Returns the CSV text."""
    text = rows_to_csv(rows)
    (out_path / f"{name}.csv").write_text(text)
    _write_json(out_path / f"{name}.json", _provenance(cfg, rows=[{k: _fmt(v) for k, v in r.items()} for r in rows]))
    return text


# ---------------------------------------------------------------------------
# commands

# context key of the command's start time, read by _provenance
_STARTED = "clpair.started"


class _Main(click.Group):
    """The command group; the one place where errors become exit codes.

    A bad config or input file exits 2 with `config error: ...`; a
    domain or convergence failure exits 1 with `<command> failed: ...`.
    """

    def invoke(self, ctx):
        ctx.meta[_STARTED] = time.perf_counter()
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except (DomainError, ConvergenceError) as exc:
            click.echo(f"{ctx.invoked_subcommand} failed: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Electron-photon pair entanglement diagnostics."""


_config_opt = click.option("--config", "config_path", required=True, type=click.Path(), help="Config file path.")
_out_opt = click.option("--out", "out", default=None, type=click.Path(), help="Output directory.")
# accepted for old command lines and ignored: a sweep runs in one process
_threads_opt = click.option("--threads", type=int, hidden=True, expose_value=False)


@main.command()
@_config_opt
@_out_opt
def measure(config_path, out):
    """Evaluate all diagnostics at the configured single point."""
    cfg = load_config(config_path)
    beam = cfg.beam()
    from .measures import evaluate_point

    row = {
        "dq_perp_um_inv": beam.dq_perp,
        "dk_ph_um_inv": cfg.dk_ph,
        **result_to_row(evaluate_point(beam, cfg.spectrum(), cfg.phase(), cfg.thresholds, cfg.quadrature)),
    }
    click.echo(_write_rows(_out_dir(cfg, out), "measure", cfg, [row]), nl=False)


@main.command()
@_config_opt
@_out_opt
@_threads_opt
def sweep(config_path, out):
    """Evaluate the configured parameter-plane sweep to CSV + JSON."""
    _sweep(load_config(config_path), out, "sweep")


def _sweep(cfg: RunConfig, out: Optional[str], name: str, field_name: Optional[str] = None) -> None:
    """Run the sweep, write `<name>.csv` and `<name>.json`, and render the
    CSV's `field_name` to `<name>.svg` as `render` does; then name each
    failed cell and exit 1 if any failed."""
    rows = run_sweep(cfg)
    out_path = _out_dir(cfg, out)
    text = _write_rows(out_path, name, cfg, rows)
    click.echo(f"wrote {len(rows)} cells to {out_path / f'{name}.csv'}")
    if field_name is not None:
        (out_path / f"{name}.svg").write_text(_render_csv(text, field_name, cfg))
        click.echo(f"wrote {out_path / f'{name}.svg'}")
    _report_failures(rows)


@main.command()
@_config_opt
@_out_opt
def dist(config_path, out):
    """Emit the joint momentum and joint position distribution grids."""
    cfg = load_config(config_path)
    beam, spectrum = cfg.beam(), cfg.spectrum()
    from .distributions import joint_position, momentum_grid

    # one grid at a time: each is built, written and summarized, then
    # dropped before the next is built. The position grid goes first, so
    # that a failure in joint_position leaves no CSV behind.
    summary = {}
    for name, build in (("position", joint_position), ("momentum", momentum_grid)):
        grid = build(beam, spectrum)
        out_path = _out_dir(cfg, out)
        with (out_path / f"dist_{name}.csv").open("w") as fh:
            write_grid_csv(grid, fh)
        summary[f"{name}_shape"] = list(grid.density.shape)
        summary[f"{name}_integral"] = grid.integral()
        del grid
    _write_json(out_path / "dist.json", _provenance(cfg, **summary))
    click.echo(f"wrote distribution grids to {out_path}")


@main.command("regime-map")
@_config_opt
@_out_opt
@_threads_opt
def regime_map(config_path, out):
    """Sweep the plane to CSV + JSON and render the categorical regime map SVG."""
    _sweep(load_config(config_path), out, "regime_map", "regime")


@main.command()
@_config_opt
@click.option("--seed", default=None, type=int, help="Monte Carlo seed override.")
@_out_opt
def validate(config_path, seed, out):
    """Run the oracle suite at the configured point."""
    cfg = load_config(config_path)
    # the override meets the same checks as [quadrature] mc_seed; the
    # provenance keeps the config as written, with the seed beside it
    seed = (cfg if seed is None else replace(cfg, mc_seed=seed)).mc_seed
    beam = cfg.beam()
    from .oracles import run_suite

    reports = run_suite(beam, cfg.spectrum(), cfg.quadrature, seed=seed, mc_samples=cfg.mc_samples)
    out_path = _out_dir(cfg, out)
    payload = _provenance(
        cfg,
        seed=seed,
        reports=[
            {
                "quantity": r.quantity,
                "value": r.value,
                "oracle_value": r.oracle_value,
                "discrepancy": r.discrepancy,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "metadata": {k: _fmt(v) for k, v in r.metadata.items()},
            }
            for r in reports
        ],
    )
    _write_json(out_path / "validate.json", payload)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status} {r.quantity}: |{r.value:.6e} - {r.oracle_value:.6e}| = {r.discrepancy:.2e} <= {r.tolerance:.2e}")
    if not all(r.passed for r in reports):
        sys.exit(1)


@main.command()
@_config_opt
@click.option("--field", "field_name", required=True, help="CSV column to render.")
@click.option("--input", "input_csv", default=None, type=click.Path(), help="Sweep CSV (default <out>/sweep.csv).")
@_out_opt
def render(config_path, field_name, input_csv, out):
    """Render a heatmap SVG of one field from an existing sweep CSV."""
    cfg = load_config(config_path)
    out_path = _out_dir(cfg, out)
    src = Path(input_csv) if input_csv else out_path / "sweep.csv"
    if not src.exists():
        raise ConfigError(f"sweep CSV not found at {src}")
    svg = _render_csv(src.read_text(), field_name, cfg)
    (out_path / f"render_{field_name}.svg").write_text(svg)
    click.echo(f"wrote {out_path / f'render_{field_name}.svg'}")


def _render_csv(text: str, field_name: str, cfg: RunConfig) -> str:
    """The SVG of one field of a sweep CSV, with the threshold contours."""
    from .render import ContourSpec, render_heatmap

    rows = csv_to_rows(text)
    if field_name not in CSV_HEADER[2:]:
        raise ConfigError(f"unknown field {field_name!r}; choose from {CSV_HEADER[2:]}")
    xs = sorted({row["dq_perp_um_inv"] for row in rows})
    ys = sorted({row["dk_ph_um_inv"] for row in rows})
    if not all(0.0 < v < math.inf for v in xs + ys):
        raise ConfigError("sweep CSV coordinates must be positive and finite")
    index = {(row["dq_perp_um_inv"], row["dk_ph_um_inv"]): row for row in rows}
    if len(index) != len(rows):
        raise ConfigError("sweep CSV repeats a (dq_perp_um_inv, dk_ph_um_inv) cell")
    if len(index) != len(xs) * len(ys):
        raise ConfigError("sweep CSV does not cover a full rectangular grid")

    def grid_of(key):
        return [[float(index[(x, y)][key]) for y in ys] for x in xs]

    d2 = grid_of("d2")
    purity = grid_of("purity_sc")
    th = cfg.thresholds
    contours = [
        ContourSpec(d2, th.epr_threshold, "#ffffff", f"d2 = {th.epr_threshold:g}"),
        ContourSpec(purity, th.purity_threshold, "#ff00ff", f"purity = {th.purity_threshold:.3g}"),
    ]
    if field_name == "regime":
        cats = [str(index[(x, y)]["regime"]) for x in xs for y in ys]
        return render_heatmap(xs, ys, [[0.0] * len(ys) for _ in xs], field_name, contours=contours, categories=cats)
    values = grid_of(field_name)
    return render_heatmap(xs, ys, values, field_name, contours=contours)


if __name__ == "__main__":
    main()
