"""Command-line interface: config handling, sweeps, serialization.

Subcommands (one verb per artifact): `measure` (single point), `sweep`
(parameter-plane CSV), `dist` (the joint densities' 1D factors), `regime-map`
(`sweep`'s CSV and JSON, the JSON with the regime boundaries, plus
`render --field regime`'s SVG), `validate`
(oracle suite), `render` (SVG from a sweep CSV). `measure`, `sweep` and
`regime-map` build each row with `_point_row` and write them through
one function, `_write_rows`.

The config file is an INI-style key-value document of the computation
alone: the beam, the spectrum, the phase and the sweep plane. The
tolerances, the regime thresholds and the Monte Carlo sample count are
the library's constants, which no input can set. `--out` (default: the
current directory) is the one way to choose where a command writes, and
no environment variable is read. A sweep evaluates its cells on
`--threads` worker threads of one process (default: one per usable
core) and writes them in row-major order, the same bytes at any thread
count. Exit codes: 0 success, 1 cell or oracle
failure, 2 configuration error; `_Main.invoke` decides each of them
from the error a command raises or the failure it returns.

The config layer here (`SweepAxes`, `RunConfig`, `load_config`,
`dump_config`, `csv_to_rows`) and `render` use no numpy. A command
imports its numerical modules only once its config has been read and
checked, so `render`, `--help` and a config error never load numpy.
Likewise `hashlib`, `json` and `csv` are imported by the functions that
use them, and neither `load_config` nor a config error loads any of them.
"""

from __future__ import annotations

import atexit
import configparser
import gc
import io
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import click

from . import __version__
from .constants import EPR_THRESHOLD, MC_SEED, PURITY_THRESHOLD, TWO_PI
from .errors import ConfigError, ConvergenceError, DomainError, ResolutionError
from .model import BeamParams, PhaseModel, SpectrumModel, check_admissible, wavelength_to_wavenumbers

if TYPE_CHECKING:
    import numpy as np

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
# the regime cells rows_to_csv writes: a Regime value, or "error" for a
# failed cell, whose longitudinal_entangled cell is empty
_REGIME_CELLS = ("A", "B", "C", "anomalous", "error")
# a computation's failures: an error row in a sweep, exit 1 in any other command
_FAILURES = (DomainError, ConvergenceError, ResolutionError)


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

    The phase is the library's own `PhaseModel`, which checks itself.
    """

    kinetic_energy_kev: float
    dq_par: float
    k_c: float
    dk_ph: float
    dq_perp: Optional[float] = None
    phase: PhaseModel = PhaseModel()
    sweep: Optional[SweepAxes] = None

    def __post_init__(self):
        # fail fast with the model's checks and its admissible box, at the
        # configured point and the sweep plane's four corners: w grows with
        # dk_ph, u with dq_perp and l with neither, so the corners bound
        # every cell. Without a dq_perp, dq_par stands in; as u it is
        # l c/v_z >= l, so it trips no edge that l does not
        points = [(self.dq_perp, self.dk_ph)]
        if self.sweep is not None:
            axes = self.sweep
            points += [(dq, dk) for dq in (axes.dq_perp_min, axes.dq_perp_max) for dk in (axes.dk_ph_min, axes.dk_ph_max)]
        for dq, dk in points:
            spectrum = self.spectrum(dk)
            check_admissible(self.beam(self.dq_par if dq is None else dq), spectrum)

    def beam(self, dq_perp: Optional[float] = None) -> BeamParams:
        dq = dq_perp if dq_perp is not None else self.dq_perp
        if dq is None:
            raise ConfigError("this command needs beam.l_perp_um or beam.dq_perp_um_inv")
        return BeamParams(self.kinetic_energy_kev, dq, self.dq_par)

    def spectrum(self, dk_ph: Optional[float] = None) -> SpectrumModel:
        return SpectrumModel(self.k_c, dk_ph if dk_ph is not None else self.dk_ph)


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
    "phase": {"variant": ("phase.variant", str), "xi": ("phase.xi", float)},
    "sweep": {
        "dq_perp_min": ("sweep.dq_perp_min", float),
        "dq_perp_max": ("sweep.dq_perp_max", float),
        "dq_perp_steps": ("sweep.dq_perp_steps", int),
        "dk_ph_min": ("sweep.dk_ph_min", float),
        "dk_ph_max": ("sweep.dk_ph_max", float),
        "dk_ph_steps": ("sweep.dk_ph_steps", int),
    },
}
# the fields that each section must fill when present; [beam] and [spectrum] must be
_REQUIRED = {
    "beam": ("kinetic_energy_kev", "dq_par"),
    "spectrum": ("k_c", "dk_ph"),
    "sweep": tuple(field for field, _ in _CONFIG_KEYS["sweep"].values()),
}
# how parse_config builds each object that a RunConfig field holds
_HOLDERS = {"sweep": SweepAxes, "phase": PhaseModel}
_NOUNS = {float: "a number", int: "an integer", _length: "a positive number"}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a % in a value is itself
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(parser)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


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
        # dk_ph = 2 pi dlambda / lambda_c^2, with lambda_c as given if it was;
        # a k_c of 0 has no wavelength, and the conversion refuses 0 as one
        k_c = fields["k_c"]
        lam = float(spectrum["lambda_c_um"]) if "lambda_c_um" in spectrum else (TWO_PI / k_c if k_c else 0.0)
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
    import hashlib

    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep machinery

def _point_row(cfg: RunConfig, dq_perp: float, dk_ph: float) -> dict:
    """The row of one point, as `measure` and a sweep cell write it: its
    coordinates and `evaluate_point`'s diagnostics, keyed by CSV column."""
    from .measures import evaluate_point

    r = evaluate_point(cfg.beam(dq_perp), cfg.spectrum(dk_ph), cfg.phase)
    values = (
        dq_perp,
        dk_ph,
        r.purity_sc,
        r.purity_z,
        r.var_rel_pos,
        r.var_tot_wavevector,
        r.d2,
        r.schmidt_number,
        r.regime.value,
        r.longitudinal_entangled,
    )
    return dict(zip(CSV_HEADER, values, strict=True))


def _cell_row(cfg: RunConfig, dq_perp: float, dk_ph: float) -> dict:
    """`_point_row` of one sweep cell; a failure becomes an 'error' row
    that keeps its reason under `error` and, for a quadrature that did not
    converge, its last two estimates (JSON only, not CSV)."""
    try:
        return _point_row(cfg, dq_perp, dk_ph)
    except _FAILURES as exc:
        row = {
            "dq_perp_um_inv": dq_perp,
            "dk_ph_um_inv": dk_ph,
            **dict.fromkeys(CSV_HEADER[2:-2], math.nan),
            "regime": "error",
            "longitudinal_entangled": "",
            "error": str(exc),
        }
        for key in ("best_estimate", "previous_estimate"):
            if getattr(exc, key, None) is not None:
                row[key] = getattr(exc, key)
        return row


def run_sweep(cfg: RunConfig, threads: Optional[int] = None) -> list[dict]:
    """Every sweep cell's `_cell_row`, in row-major order, evaluated on
    `threads` worker threads (by default one per usable core).

    Each cell is computed on its own, so no value is shared between cells
    and the rows do not depend on the thread count. Two cells run at once
    because numpy's array operations and the one-thread OpenBLAS release
    the GIL. The workers take the cells in row-major order, one at a time;
    with threads=1 every cell runs on one and the same thread. An
    exception that `_cell_row` does not turn into an error row stops the
    workers taking cells, and is raised here once all of them have joined.
    A plane over the array budget is refused before either axis is built.
    """
    from .quadrature import check_budget

    # a cell's row and what the writers make of it take 4207 bytes: the
    # tracemalloc peak of a 25 x 25 README-plane sweep on one thread and
    # its writers, 2.63 MB, over its 625 cells
    check_budget("sweep cells", cfg.sweep.dq_perp_steps * cfg.sweep.dk_ph_steps, 4207)
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cells = [(float(dqp), float(dkp)) for dqp in cfg.sweep.dq_perp_values() for dkp in cfg.sweep.dk_ph_values()]
    rows = [None] * len(cells)
    todo, taking, failures = iter(range(len(cells))), threading.Lock(), []

    def work():
        while not failures:
            with taking:
                i = next(todo, None)
            if i is None:
                return
            try:
                rows[i] = _cell_row(cfg, *cells[i])
            except BaseException as exc:
                failures.append(exc)

    workers = [threading.Thread(target=work, name=f"clpair-sweep-{n}") for n in range(min(threads, len(cells)))]
    for worker in workers:
        worker.start()
    try:
        for worker in workers:
            worker.join()
    except BaseException as exc:  # an interrupt here stops the workers after their current cell
        failures.append(exc)
        raise
    if failures:
        raise failures[0]
    return rows


def _report_failures(rows: list[dict]) -> bool:
    """Name each failed cell and its reason on stderr; whether any failed."""
    failures = [r for r in rows if r["regime"] == "error"]
    for r in failures:
        click.echo(f"cell ({r['dq_perp_um_inv']}, {r['dk_ph_um_inv']}) failed: {r['error']}", err=True)
    return bool(failures)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in CSV_HEADER])
    return buf.getvalue()


def csv_to_rows(text: str) -> list[dict]:
    """The rows of a sweep CSV as `run_sweep` returns them, so that
    rows_to_csv writes the text back."""
    import csv

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
        regime, flag = row["regime"], row["longitudinal_entangled"]
        if regime not in _REGIME_CELLS:
            raise ConfigError(f"CSV line {line}: regime {regime!r} is not one of {', '.join(_REGIME_CELLS)}")
        if regime == "error":
            if flag:  # an error row keeps its empty cell
                raise ConfigError(f"CSV line {line}: longitudinal_entangled {flag!r} must be empty on an error row")
        elif flag in ("true", "false"):
            row["longitudinal_entangled"] = flag == "true"
        else:
            raise ConfigError(f"CSV line {line}: longitudinal_entangled {flag!r} is not true or false")
        rows.append(row)
    return rows


def _provenance(cfg: RunConfig, **extra) -> dict:
    """Versions, config and the command's wall time so far; the CSVs
    carry none of it, so repeated runs still write identical CSVs."""
    return {
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        # every command that writes provenance has loaded numpy by now
        "numpy_version": sys.modules["numpy"].__version__,
        "wall_seconds": time.perf_counter() - click.get_current_context().meta[_STARTED],
        "config_hash": config_hash(cfg),
        "config": dump_config(cfg),
        **extra,
    }


def _out_dir(out: str) -> Path:
    """The `--out` directory, made if missing; every command calls this
    right after its config loads, so an unusable path costs no compute."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


def _write_json(path: Path, payload: dict) -> None:
    import json

    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_factor(path: Path, header: str, x: np.ndarray, y: np.ndarray) -> None:
    """A two-column CSV of x and y, each value as its repr."""
    path.write_text(header + "\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))


def _write_rows(
    out_path: Path, name: str, cfg: RunConfig, rows: list[dict], boundaries: Optional[dict] = None
) -> str:
    """Write `<name>.csv` and `<name>.json`: the CSV columns of `rows`, and
    the provenance with every key of every row, so that a failed cell
    keeps its reason, as strings, and `boundaries`, if given, as JSON
    numbers. Returns the CSV text."""
    text = rows_to_csv(rows)
    (out_path / f"{name}.csv").write_text(text)
    payload = _provenance(cfg, rows=[{k: _fmt(v) for k, v in r.items()} for r in rows])
    if boundaries is not None:
        payload["boundaries"] = boundaries
    _write_json(out_path / f"{name}.json", payload)
    return text


# ---------------------------------------------------------------------------
# commands

# context key of the command's start time, read by _provenance
_STARTED = "clpair.started"


class _Main(click.Group):
    """The command group; the one place where outcomes become exit codes.

    A bad config or input file exits 2 with `config error: ...`; one of
    `_FAILURES` exits 1 with `<command> failed: ...`; a command that
    returns true (a failed sweep cell or oracle) exits 1. A failed
    internal cross-check (`ConsistencyError`) is a fault of the program
    and keeps its traceback in every command.

    A command makes little cyclic garbage, so the cyclic collector is off
    while it runs and back in its previous state after. At exit the heap
    is frozen, so the interpreter's last collection does not walk objects
    that the process is about to release anyway.
    """

    def invoke(self, ctx):
        ctx.meta[_STARTED] = time.perf_counter()
        atexit.unregister(gc.freeze)  # registered once however often main runs
        atexit.register(gc.freeze)
        collecting = gc.isenabled()
        gc.disable()
        try:
            if super().invoke(ctx):
                sys.exit(1)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except _FAILURES as exc:
            click.echo(f"{ctx.invoked_subcommand} failed: {exc}", err=True)
            sys.exit(1)
        finally:
            if collecting:
                gc.enable()


@click.group(cls=_Main)
def main():
    """Electron-photon pair entanglement diagnostics."""


_config_opt = click.option("--config", "config_path", required=True, type=click.Path(), help="Config file path.")
_out_opt = click.option("--out", "out", default=".", type=click.Path(), help="Output directory.", show_default=True)
# the worker threads of run_sweep; 1 keeps every cell on one thread, as a
# tracer with one span stack needs
_threads_opt = click.option("--threads", type=click.IntRange(min=1), help="Worker threads (default: one per usable core).")


@main.command()
@_config_opt
@_out_opt
def measure(config_path, out):
    """Evaluate all diagnostics at the configured single point."""
    cfg = load_config(config_path)
    beam = cfg.beam()
    out_path = _out_dir(out)
    row = _point_row(cfg, beam.dq_perp, cfg.dk_ph)
    click.echo(_write_rows(out_path, "measure", cfg, [row]), nl=False)


@main.command()
@_config_opt
@_out_opt
@_threads_opt
def sweep(config_path, out, threads):
    """Evaluate the configured parameter-plane sweep to CSV + JSON."""
    return _sweep(load_config(config_path), out, threads, "sweep")


def _sweep(cfg: RunConfig, out: str, threads: Optional[int], name: str, regimes: bool = False) -> bool:
    """Run the sweep on `threads` worker threads and write `<name>.csv`
    and `<name>.json`; with `regimes`, add the regime boundaries to the
    JSON and render the CSV's regimes to `<name>.svg` as `render --field
    regime` does. Then name each failed cell; returns whether any failed."""
    if cfg.sweep is None:
        raise ConfigError("sweep commands need a [sweep] section")
    out_path = _out_dir(out)
    rows = run_sweep(cfg, threads)
    boundaries = None
    if regimes:
        from .measures import regime_boundaries

        beam = cfg.beam(cfg.sweep.dq_perp_min)  # the boundaries do not depend on dq_perp
        boundaries = regime_boundaries(beam, cfg.k_c, cfg.sweep.dk_ph_values().tolist(), cfg.phase)
    text = _write_rows(out_path, name, cfg, rows, boundaries)
    click.echo(f"wrote {len(rows)} cells to {out_path / f'{name}.csv'}")
    if regimes:
        (out_path / f"{name}.svg").write_text(_render_csv(text, "regime"))
        click.echo(f"wrote {out_path / f'{name}.svg'}")
    return _report_failures(rows)


@main.command()
@_config_opt
@_out_opt
def dist(config_path, out):
    """Emit the 1D factors of the joint momentum and joint position densities."""
    cfg = load_config(config_path)
    beam, spectrum = cfg.beam(), cfg.spectrum()
    out_path = _out_dir(out)
    from .distributions import joint_position, momentum_grid

    # The position grid goes first, so that a failure in joint_position
    # leaves no CSV behind. Each grid is summarized and dropped before its
    # factor is written.
    grid, s, t = joint_position(beam, spectrum)
    summary = {
        "position_shape": list(grid.density.shape),
        "position_integral": grid.integral(),
        "x_el_um": grid.axis1.tolist(),
        "x_ph_um": grid.axis2.tolist(),
        # T is even: twice the trapezoid over s >= 0
        "relative_integral": float((t[1:] + t[:-1]) @ (s[1:] - s[:-1])),
    }
    del grid
    _write_factor(out_path / "dist_relative.csv", "s_um,T_um_inv", s, t)
    grid, g = momentum_grid(beam, spectrum)
    summary.update(
        momentum_shape=list(grid.density.shape), momentum_integral=grid.integral(), qx_um_inv=grid.axis1.tolist()
    )
    kx = grid.axis2
    del grid
    _write_factor(out_path / "dist_marginal.csv", "kx_um_inv,G_um", kx, g)
    # neither grid reads the config's [phase]
    _write_json(out_path / "dist.json", _provenance(cfg, phase="neglected", **summary))
    click.echo(f"wrote distribution factors to {out_path}")


@main.command("regime-map")
@_config_opt
@_out_opt
@_threads_opt
def regime_map(config_path, out, threads):
    """Sweep the plane to CSV + JSON and render the categorical regime map SVG."""
    return _sweep(load_config(config_path), out, threads, "regime_map", regimes=True)


@main.command()
@_config_opt
@click.option("--seed", default=MC_SEED, show_default=True, type=click.IntRange(min=0), help="Monte Carlo seed.")
@_out_opt
def validate(config_path, seed, out):
    """Run the oracle suite at the configured point."""
    cfg = load_config(config_path)
    beam = cfg.beam()
    out_path = _out_dir(out)
    from .oracles import run_suite

    reports = run_suite(beam, cfg.spectrum(), seed=seed)
    # the suite runs at zero phase whatever [phase] says
    payload = _provenance(
        cfg,
        phase="neglected",
        seed=seed,
        reports=[{**asdict(r), "metadata": {k: _fmt(v) for k, v in r.metadata.items()}} for r in reports],
    )
    _write_json(out_path / "validate.json", payload)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status} {r.quantity}: |{r.value:.6e} - {r.oracle_value:.6e}| = {r.discrepancy:.2e} <= {r.tolerance:.2e}")
    return not all(r.passed for r in reports)


@main.command()
@_config_opt
@click.option("--field", "field_name", required=True, help="CSV column to render.")
@click.option("--input", "input_csv", default=None, type=click.Path(), help="Sweep CSV (default <out>/sweep.csv).")
@_out_opt
def render(config_path, field_name, input_csv, out):
    """Render a heatmap SVG of one field from an existing sweep CSV."""
    cfg = load_config(config_path)
    out_path = _out_dir(out)
    src = Path(input_csv) if input_csv else out_path / "sweep.csv"
    try:
        text = src.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read sweep CSV {src}: {exc}") from exc
    svg = _render_csv(text, field_name)
    (out_path / f"render_{field_name}.svg").write_text(svg)
    click.echo(f"wrote {out_path / f'render_{field_name}.svg'}")


def _render_csv(text: str, field_name: str) -> str:
    """The SVG of one field of a sweep CSV, with the threshold contours."""
    from .render import ContourSpec, render_heatmap

    if field_name not in CSV_HEADER[2:]:
        raise ConfigError(f"unknown field {field_name!r}; choose from {CSV_HEADER[2:]}")
    rows = csv_to_rows(text)
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
        # an error row's empty longitudinal_entangled is a missing value
        cells = [[index[(x, y)][key] for y in ys] for x in xs]
        return [[math.nan if v == "" else float(v) for v in row] for row in cells]

    d2 = grid_of("d2")
    purity = grid_of("purity_sc")
    contours = [
        ContourSpec(d2, EPR_THRESHOLD, "#ffffff", f"d2 = {EPR_THRESHOLD:g}"),
        ContourSpec(purity, PURITY_THRESHOLD, "#ff00ff", f"purity = {PURITY_THRESHOLD:.3g}"),
    ]
    if field_name == "regime":
        cats = [str(index[(x, y)]["regime"]) for x in xs for y in ys]
        return render_heatmap(xs, ys, [[0.0] * len(ys) for _ in xs], field_name, contours=contours, categories=cats)
    values = grid_of(field_name)
    return render_heatmap(xs, ys, values, field_name, contours=contours)


if __name__ == "__main__":
    main()
