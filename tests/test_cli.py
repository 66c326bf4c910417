import configparser
import json
import math
import platform
import re
import time
import warnings
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clpair.cli import (
    _CONFIG_KEYS,
    CSV_HEADER,
    _write_factor,
    RunConfig,
    SweepAxes,
    config_hash,
    csv_to_rows,
    dump_config,
    load_config,
    main,
    parse_config,
    rows_to_csv,
    run_sweep,
)
from clpair.constants import PURITY_REL_TOL
from clpair.errors import ConfigError, ConsistencyError, ConvergenceError, DomainError, ResolutionError
from clpair.model import PhaseModel, check_admissible, derive_kinematics
from conftest import PLANE_CSV, README, readme_section, src_env

BASE_INI = """\
[beam]
kinetic_energy_kev = 200.0
l_par_um = 1.3
dq_perp_um_inv = 3.0

[spectrum]
lambda_c_um = 0.5
dk_ph_um_inv = 1.0
"""

SWEEP_INI = BASE_INI + """
[sweep]
dq_perp_min = 1.0
dq_perp_max = 10.0
dq_perp_steps = 2
dk_ph_min = 0.5
dk_ph_max = 2.0
dk_ph_steps = 2
"""


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def assert_config_error(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "config error: " in res.output and "Traceback" not in res.output


class TestConfigParsing:
    def test_length_alternatives_convert(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE_INI))
        assert cfg.dq_par == pytest.approx(2.0 * math.pi / 1.3)
        assert cfg.k_c == pytest.approx(2.0 * math.pi / 0.5)
        assert cfg.dq_perp == 3.0 and cfg.dk_ph == 1.0

    def test_roundtrip_identity(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_INI))
        parser = configparser.ConfigParser()
        parser.read_string(dump_config(cfg))
        assert parse_config(parser) == cfg
        assert config_hash(cfg) == config_hash(parse_config(parser))

    @pytest.mark.parametrize(
        "mutation",
        [
            ("l_par_um = 1.3", "l_par_um = 1.3\ndq_par_um_inv = 4.8"),
            ("l_par_um = 1.3", ""),
            ("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 1.0\ndlambda_um = 0.01"),
            ("lambda_c_um = 0.5", "lambda_c_um = 0.5\nk_c_um_inv = 12.6"),
        ],
        ids=["both_par", "no_par", "both_width", "both_center"],
    )
    def test_exclusivity_violations(self, tmp_path, mutation):
        text = BASE_INI.replace(*mutation)
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_wavelength_width_conversion(self, tmp_path):
        text = BASE_INI.replace("dk_ph_um_inv = 1.0", "dlambda_um = 0.0119")
        cfg = load_config(write(tmp_path, text))
        assert cfg.dk_ph == pytest.approx(2.0 * math.pi * 0.0119 / 0.25, rel=1e-12)

    def test_bad_phase_variant(self, tmp_path):
        text = BASE_INI + "\n[phase]\nvariant = spiral\n"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, text))

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            SweepAxes(1.0, 0.5, 3, 0.1, 1.0, 3)
        with pytest.raises(ConfigError):
            SweepAxes(1.0, 2.0, 1, 0.1, 1.0, 3)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.ini")

    @pytest.mark.parametrize("name", ["zero%1", "zero%%1"])
    def test_percent_is_literal(self, runner, tmp_path, name):
        # interpolation would refuse "%1" and read "%%" as "%"; the variant
        # reaches PhaseModel as written, which names it in its refusal
        res = runner.invoke(
            main,
            ["measure", "--config", write(tmp_path, BASE_INI + f"\n[phase]\nvariant = {name}\n"), "--out", str(tmp_path)],
        )
        assert_config_error(res)
        assert f"unknown phase variant {name!r}" in res.output

    def test_no_substitution(self, runner, tmp_path):
        text = BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = %(kinetic_energy_kev)s")
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[beam] dq_perp_um_inv: not a number" in res.output


# every config key with a value unlike its default, and the RunConfig
# attribute that it must fill. It is written out apart from cli's key
# table: parse(dump(cfg)) == cfg cannot catch two keys swapped there,
# because dump and parse would share the swap. A length fills the
# attribute of the wavenumber it stands for.
KEY_TARGETS = {
    "beam": {
        "kinetic_energy_kev": ("150.0", "kinetic_energy_kev", 150.0),
        "l_par_um": ("1.25", "dq_par", 2.0 * math.pi / 1.25),
        "dq_par_um_inv": ("4.5", "dq_par", 4.5),
        "l_perp_um": ("0.8", "dq_perp", 2.0 * math.pi / 0.8),
        "dq_perp_um_inv": ("2.5", "dq_perp", 2.5),
    },
    "spectrum": {
        "lambda_c_um": ("0.55", "k_c", 2.0 * math.pi / 0.55),
        "k_c_um_inv": ("11.0", "k_c", 11.0),
        "dlambda_um": ("0.01", "dk_ph", 2.0 * math.pi * 0.01 / 0.55**2),
        "dk_ph_um_inv": ("0.35", "dk_ph", 0.35),
    },
    "sweep": {
        "dq_perp_min": ("0.2", "sweep.dq_perp_min", 0.2),
        "dq_perp_max": ("20.0", "sweep.dq_perp_max", 20.0),
        "dq_perp_steps": ("3", "sweep.dq_perp_steps", 3),
        "dk_ph_min": ("0.3", "sweep.dk_ph_min", 0.3),
        "dk_ph_max": ("3.0", "sweep.dk_ph_max", 3.0),
        "dk_ph_steps": ("4", "sweep.dk_ph_steps", 4),
    },
    "phase": {"variant": ("radial_kc", "phase.variant", "radial_kc"), "xi": ("2.5", "phase.xi", 2.5)},
}
# each length and the wavenumber it stands for
LENGTHS = {"l_par_um": "dq_par_um_inv", "l_perp_um": "dq_perp_um_inv", "lambda_c_um": "k_c_um_inv", "dlambda_um": "dk_ph_um_inv"}


class TestKeyTargets:
    @pytest.mark.parametrize("form", ["wavenumbers", "lengths"])
    def test_each_key_fills_its_own_attribute(self, tmp_path, form):
        left_out = set(LENGTHS.values()) if form == "lengths" else set(LENGTHS)
        lines, expected = [], {}
        for section, keys in KEY_TARGETS.items():
            lines.append(f"[{section}]")
            for key, (text, attribute, value) in keys.items():
                if key not in left_out:
                    lines.append(f"{key} = {text}")
                    expected[attribute] = value
        cfg = load_config(write(tmp_path, "\n".join(lines) + "\n"))
        for attribute, value in expected.items():
            assert attrgetter(attribute)(cfg) == pytest.approx(value, rel=1e-15), attribute

    def test_every_key_is_covered(self):
        assert {section: set(keys) for section, keys in KEY_TARGETS.items()} == {
            section: set(keys) for section, keys in _CONFIG_KEYS.items()
        }


class TestCsvRoundTrip:
    def test_exact(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_INI))
        rows = run_sweep(cfg)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = csv_to_rows(text)
        assert rows_to_csv(back) == text

    def test_header_rejected(self):
        with pytest.raises(ConfigError):
            csv_to_rows("a,b\n1,2\n")

    @pytest.mark.parametrize(
        "text",
        ["", ",".join(CSV_HEADER) + "\n1.0,0.5\n", ",".join(CSV_HEADER) + "\n1.0,0.5,abc,1,1,1,1,1,A,true\n"],
        ids=["empty", "short_row", "not_a_number"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ConfigError):
            csv_to_rows(text)

    def test_error_row_accepted(self):
        # a failed cell's row, as rows_to_csv writes it: an empty flag
        (row,) = csv_to_rows(",".join(CSV_HEADER) + "\n1.0,0.5,nan,nan,nan,nan,nan,nan,error,\n")
        assert row["regime"] == "error" and row["longitudinal_entangled"] == ""

    def test_failed_cell_round_trips(self, runner, tmp_path, monkeypatch):
        # a sweep-written CSV with a failed cell: its empty flag stays empty
        import clpair.measures as measures

        real = measures.purity_sc

        def flaky(beam, spectrum, *args):
            if beam.dq_perp == 1.0 and spectrum.dk_ph == 2.0:
                raise ConvergenceError("did not converge")
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_sc", flaky)
        res = runner.invoke(main, ["sweep", "--config", write(tmp_path, SWEEP_INI), "--out", str(tmp_path)])
        assert res.exit_code == 1, res.output
        text = (tmp_path / "sweep.csv").read_text()
        assert "1.0,2.0,nan,nan,nan,nan,nan,nan,error,\n" in text
        assert rows_to_csv(csv_to_rows(text)) == text

    def test_regime_cells_are_the_regimes(self):
        # the config layer loads no numpy, so it keeps its own copy of the
        # Regime values that a CSV may hold
        import clpair.cli as cli
        from clpair.measures import Regime

        assert cli._REGIME_CELLS == (*(r.value for r in Regime), "error")


# a 3 x 3 plane at L_par 13 um whose dk_ph = 10 column does not converge
# once `unconverged_at` plants it: three error rows among its nine
ERROR_PLANE_INI = (
    SWEEP_INI.replace("l_par_um = 1.3", "l_par_um = 13")
    .replace("dk_ph_max = 2.0", "dk_ph_max = 10.0")
    .replace("_steps = 2", "_steps = 3")
)


def unconverged_at(monkeypatch, dk_ph):
    """Plant a purity_sc that does not converge at `dk_ph`, with the
    estimates that L_par 13 um, (3, 10) gave before the longitudinal
    Gaussian was product-integrated; no point of the README planes fails
    since, so the failure paths need a planted one."""
    import clpair.measures as measures

    real = measures.purity_sc

    def planted(beam, spectrum):
        if spectrum.dk_ph == dk_ph:
            return measures._checked_purity("purity quadrature", 4.667247e-03, 3.570217e-03)
        return real(beam, spectrum)

    monkeypatch.setattr(measures, "purity_sc", planted)


class TestSweepDeterminism:
    @pytest.mark.parametrize("command,name", [("sweep", "sweep"), ("regime-map", "regime_map")])
    def test_thread_count_does_not_change_the_output(self, runner, tmp_path, monkeypatch, command, name):
        unconverged_at(monkeypatch, 10.0)
        cfg = write(tmp_path, ERROR_PLANE_INI)
        csvs, outputs = [], []
        for i, flag in enumerate([["--threads", "1"], ["--threads", "2"], []]):
            out = tmp_path / str(i)
            res = runner.invoke(main, [command, *flag, "--config", cfg, "--out", str(out)])
            assert res.exit_code == 1, res.output
            csvs.append((out / f"{name}.csv").read_bytes())
            outputs.append(res.output.replace(str(out), "<out>"))
        assert csvs[0] == csvs[1] == csvs[2]
        assert csvs[0].count(b",error,") == 3
        # the failed cells are named in row-major order, whichever thread ran them
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    @pytest.mark.parametrize("command", ["sweep", "regime-map"])
    def test_non_integer_threads_exits_2(self, runner, tmp_path, command, value):
        res = runner.invoke(main, [command, "--threads", value, "--config", write(tmp_path, SWEEP_INI)])
        assert res.exit_code == 2
        assert "--threads" in res.output

    def test_degenerate_sweep_matches_measure(self, runner, tmp_path):
        single = write(tmp_path, BASE_INI, "single.ini")
        deg = BASE_INI + """
[sweep]
dq_perp_min = 3.0
dq_perp_max = 3.0000000001
dq_perp_steps = 2
dk_ph_min = 1.0
dk_ph_max = 1.0000000001
dk_ph_steps = 2
"""
        degp = write(tmp_path, deg, "deg.ini")
        r1 = runner.invoke(main, ["measure", "--config", single, "--out", str(tmp_path / "m")])
        r2 = runner.invoke(main, ["sweep", "--config", degp, "--out", str(tmp_path / "s")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        m = csv_to_rows((tmp_path / "m" / "measure.csv").read_text())[0]
        s = csv_to_rows((tmp_path / "s" / "sweep.csv").read_text())[0]
        for key in CSV_HEADER[2:]:
            if isinstance(m[key], float):
                assert s[key] == pytest.approx(m[key], rel=1e-6), key
            else:
                assert s[key] == m[key], key


class TestRunSweepThreads:
    """`run_sweep` on worker threads: a fault of the program propagates,
    no worker outlives the call, and one thread runs every cell."""

    @staticmethod
    def watch(monkeypatch, fail_at=None):
        """Record the thread of every evaluate_point call; raise a
        RuntimeError at the cell (dq_perp, dk_ph) `fail_at`."""
        import threading

        import clpair.measures as measures

        real, seen = measures.evaluate_point, []

        def watched(beam, spectrum, *args):
            seen.append(threading.get_ident())
            if (beam.dq_perp, spectrum.dk_ph) == fail_at:
                raise RuntimeError("planted fault")
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "evaluate_point", watched)
        return seen

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fault_propagates_and_no_worker_outlives_it(self, tmp_path, monkeypatch, threads):
        import threading

        cfg = load_config(write(tmp_path, SWEEP_INI))
        self.watch(monkeypatch, fail_at=(1.0, 2.0))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="planted fault"):
            run_sweep(cfg, threads)
        assert threading.active_count() == before

    def test_a_fault_stops_the_workers(self, tmp_path, monkeypatch):
        # the first cell fails, and the one worker takes no other
        cfg = load_config(write(tmp_path, SWEEP_INI))
        seen = self.watch(monkeypatch, fail_at=(1.0, 0.5))
        with pytest.raises(RuntimeError, match="planted fault"):
            run_sweep(cfg, 1)
        assert len(seen) == 1

    def test_an_interrupt_stops_the_workers(self, tmp_path, monkeypatch):
        # an interrupt arrives while run_sweep waits for its workers: the
        # one worker finishes the cell it holds and takes no other
        import threading

        import clpair.measures as measures

        cfg = load_config(write(tmp_path, SWEEP_INI))
        started, release, seen = threading.Event(), threading.Event(), []
        real_evaluate, real_join = measures.evaluate_point, threading.Thread.join

        def held(*args):
            seen.append(args)
            started.set()
            release.wait(10)
            return real_evaluate(*args)

        def interrupted(thread, timeout=None):
            started.wait(10)
            raise KeyboardInterrupt

        monkeypatch.setattr(measures, "evaluate_point", held)
        monkeypatch.setattr(threading.Thread, "join", interrupted)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cfg, 1)
        (worker,) = set(threading.enumerate()) - before
        release.set()
        real_join(worker, 10)
        assert not worker.is_alive()
        assert len(seen) == 1

    def test_every_cell_once_under_fast_switching(self, tmp_path, monkeypatch):
        # more workers than cores, switching threads every microsecond: a
        # cell taken twice or never would show in the calls or the rows
        import sys
        import threading

        import clpair.cli as cli

        cfg = load_config(write(tmp_path, SWEEP_INI.replace("_steps = 2", "_steps = 20")))
        cells = [(float(dq), float(dk)) for dq in cfg.sweep.dq_perp_values() for dk in cfg.sweep.dk_ph_values()]
        calls, result = [], []
        monkeypatch.setattr(cli, "_cell_row", lambda cfg, dq, dk: calls.append((dq, dk)) or {"cell": (dq, dk)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweeping = threading.Thread(target=lambda: result.append(run_sweep(cfg, 8)))
            sweeping.start()
            sweeping.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not sweeping.is_alive()
        assert [row["cell"] for row in result[0]] == cells
        assert sorted(calls) == cells

    @pytest.mark.parametrize("threads", [1, 2, None])
    def test_rows_and_threads(self, tmp_path, monkeypatch, threads):
        import threading

        cfg = load_config(write(tmp_path, SWEEP_INI))
        seen = self.watch(monkeypatch)
        before = threading.active_count()
        rows = run_sweep(cfg, threads)
        assert threading.active_count() == before
        assert [(r["dq_perp_um_inv"], r["dk_ph_um_inv"]) for r in rows] == [(1.0, 0.5), (1.0, 2.0), (10.0, 0.5), (10.0, 2.0)]
        assert len(seen) == 4
        if threads == 1:
            # a tracer that keeps one span stack, as perfbench's traced
            # replay does, relies on this
            assert len(set(seen)) == 1


class TestCommands:
    def test_measure_writes_artifacts(self, runner, tmp_path):
        cfg = write(tmp_path, BASE_INI)
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "o" / "measure.csv").exists()
        prov = json.loads((tmp_path / "o" / "measure.json").read_text())
        assert prov["config_hash"] and prov["package_version"] and prov["numpy_version"]
        assert prov["python_version"] == platform.python_version()
        assert 0.0 < prov["wall_seconds"] < 600.0
        assert "timestamp" not in prov and "scipy_version" not in prov
        header, line = (tmp_path / "o" / "measure.csv").read_text().splitlines()
        assert [{k: row[k] for k in CSV_HEADER} for row in prov["rows"]] == [dict(zip(header.split(","), line.split(",")))]

    def test_bad_config_exits_2(self, runner, tmp_path):
        cfg = write(tmp_path, BASE_INI.replace("l_par_um = 1.3", ""))
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_sweep_and_render(self, runner, tmp_path):
        cfg = write(tmp_path, SWEEP_INI)
        out = str(tmp_path / "o")
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["render", "--config", cfg, "--field", "d2", "--out", out])
        assert res.exit_code == 0, res.output
        svg = (tmp_path / "o" / "render_d2.svg").read_text()
        assert svg.startswith("<svg") and "#ffffff" in svg

    def test_render_unknown_field_exits_2(self, runner, tmp_path):
        cfg = write(tmp_path, SWEEP_INI)
        out = str(tmp_path / "o")
        assert runner.invoke(main, ["sweep", "--config", cfg, "--out", out]).exit_code == 0
        res = runner.invoke(main, ["render", "--config", cfg, "--field", "bogus", "--out", out])
        assert res.exit_code == 2

    def test_render_missing_csv_exits_2(self, runner, tmp_path):
        cfg = write(tmp_path, SWEEP_INI)
        res = runner.invoke(main, ["render", "--config", cfg, "--field", "d2", "--out", str(tmp_path / "empty")])
        assert res.exit_code == 2

    def test_regime_map(self, runner, tmp_path):
        # regime-map writes what sweep and then render --field regime write
        cfg = write(tmp_path, SWEEP_INI)
        out = tmp_path / "o"
        res = runner.invoke(main, ["regime-map", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        for argv in (["sweep"], ["render", "--field", "regime"]):
            res = runner.invoke(main, [*argv, "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert (out / "regime_map.svg").read_text().startswith("<svg")
        assert (out / "regime_map.csv").read_bytes() == (out / "sweep.csv").read_bytes()
        assert (out / "regime_map.svg").read_bytes() == (out / "render_regime.svg").read_bytes()
        mapped, swept = (json.loads((out / f"{name}.json").read_text()) for name in ("regime_map", "sweep"))
        assert mapped.keys() == swept.keys() | {"boundaries"}
        assert mapped["config_hash"] == config_hash(load_config(cfg))
        assert mapped["rows"] == swept["rows"] and len(mapped["rows"]) == 4

    def test_regime_map_csv_renders(self, runner, tmp_path):
        # the purity and D^2 maps of a regime map come from its CSV
        cfg = write(tmp_path, SWEEP_INI)
        out = tmp_path / "o"
        assert runner.invoke(main, ["regime-map", "--config", cfg, "--out", str(out)]).exit_code == 0
        svgs = set()
        for field in ("purity_sc", "d2", "purity_z"):
            argv = ["render", "--config", cfg, "--input", str(out / "regime_map.csv"), "--field", field, "--out", str(out)]
            res = runner.invoke(main, argv)
            assert res.exit_code == 0, res.output
            svgs.add((out / f"render_{field}.svg").read_text())
        assert len(svgs) == 3 and all(svg.startswith("<svg") for svg in svgs)

    def test_out_is_not_provenance(self, runner, tmp_path):
        # where a run writes changes no number, so the JSON's config text
        # and hash are the same under any --out
        cfg = write(tmp_path, BASE_INI)
        payloads = []
        for out in (tmp_path / "a", tmp_path / "b" / "c"):
            res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, res.output
            payloads.append(json.loads((out / "measure.json").read_text()))
        assert payloads[0]["config"] == payloads[1]["config"] == dump_config(load_config(cfg))
        assert payloads[0]["config_hash"] == payloads[1]["config_hash"]
        assert "[output]" not in payloads[0]["config"]

    def test_out_defaults_to_the_current_directory(self, runner, tmp_path, monkeypatch):
        cfg = write(tmp_path, BASE_INI)
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["measure", "--config", cfg])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "measure.csv").exists() and (tmp_path / "measure.json").exists()

    def test_validate(self, runner, tmp_path, monkeypatch):
        import clpair.oracles as oracles

        monkeypatch.setattr(oracles, "MC_SAMPLES", 20_000)
        cfg = write(tmp_path, BASE_INI)
        out = str(tmp_path / "o")
        res = runner.invoke(main, ["validate", "--config", cfg, "--out", out, "--seed", "11"])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "o" / "validate.json").read_text())
        assert payload["seed"] == 11
        assert all(r["passed"] for r in payload["reports"])

    def test_validate_fail_exits_1_after_writing(self, runner, tmp_path, monkeypatch):
        # a planted FAIL: validate prints it, still writes its report, and exits 1
        import clpair.oracles as oracles

        planted = [
            oracles.OracleReport("purity_z", 0.5, 0.5, 0.0, 1e-6, True),
            oracles.OracleReport("purity_sc", 0.5, 0.25, 0.25, 1e-6, False),
        ]
        monkeypatch.setattr(oracles, "run_suite", lambda beam, spectrum, seed: planted)
        out = tmp_path / "o"
        res = runner.invoke(main, ["validate", "--config", write(tmp_path, BASE_INI), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "FAIL purity_sc: |5.000000e-01 - 2.500000e-01| = 2.50e-01 <= 1.00e-06" in res.output
        assert "PASS purity_z: " in res.output
        reports = json.loads((out / "validate.json").read_text())["reports"]
        assert [(r["quantity"], r["passed"]) for r in reports] == [("purity_z", True), ("purity_sc", False)]

    @pytest.mark.parametrize("variant", ["polar_linear", "radial_kc", "radial_dk"])
    def test_validate_phase_is_neglected(self, runner, tmp_path, monkeypatch, variant):
        # the suite never reads [phase]: a non-zero phase gets the zero
        # phase's reports, and validate.json says so
        import clpair.oracles as oracles

        monkeypatch.setattr(oracles, "MC_SAMPLES", 20_000)
        payloads = {}
        for name, phase in (("zero", ""), ("on", f"\n[phase]\nvariant = {variant}\nxi = 0.5\n")):
            cfg = write(tmp_path, BASE_INI + phase, f"{name}.ini")
            res = runner.invoke(main, ["validate", "--config", cfg, "--out", str(tmp_path / name), "--seed", "11"])
            assert res.exit_code == 0, res.output
            payloads[name] = json.loads((tmp_path / name / "validate.json").read_text())
        assert payloads["on"]["reports"] == payloads["zero"]["reports"]
        assert payloads["on"]["phase"] == payloads["zero"]["phase"] == "neglected"
        assert f"variant = {variant}" in payloads["on"]["config"]

    def test_validate_narrow_beam(self, runner, tmp_path):
        # at dq_perp = 0.1 the Schmidt oracle's q grid needs 3810 points to
        # keep 9 per electron width
        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 0.1"))
        res = runner.invoke(main, ["validate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "7"])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "o" / "validate.json").read_text())
        (schmidt,) = [r for r in payload["reports"] if r["quantity"] == "schmidt_purity_1d"]
        assert schmidt["metadata"]["n_q"] == "3810"

    def test_dist(self, runner, tmp_path):
        cfg = write(tmp_path, BASE_INI)
        out = str(tmp_path / "o")
        res = runner.invoke(main, ["dist", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["dist.json", "dist_marginal.csv", "dist_relative.csv"]
        assert (tmp_path / "o" / "dist_marginal.csv").read_text().startswith("kx_um_inv,G_um\n")
        assert (tmp_path / "o" / "dist_relative.csv").read_text().startswith("s_um,T_um_inv\n0.0,")
        meta = json.loads((tmp_path / "o" / "dist.json").read_text())
        assert meta["phase"] == "neglected"
        assert abs(meta["momentum_integral"] - 1.0) < 0.01
        assert abs(meta["position_integral"] - 1.0) < 0.01


class TestRegimeBoundaries:
    """regime_map.json's `boundaries`, against the sweep it maps."""

    def boundaries(self, runner, tmp_path, text):
        out = tmp_path / "o"
        res = runner.invoke(main, ["regime-map", "--config", write(tmp_path, text), "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = csv_to_rows((out / "regime_map.csv").read_text())
        return json.loads((out / "regime_map.json").read_text())["boundaries"], rows

    @pytest.mark.parametrize("phase", ["", "\n[phase]\nvariant = radial_kc\nxi = 100\n"], ids=["zero", "radial_kc-100"])
    def test_d2_boundary_at_every_sweep_dk(self, runner, tmp_path, phase):
        from clpair.measures import rel_pos_variance_closed

        bounds, rows = self.boundaries(runner, tmp_path, SWEEP_INI + phase)
        cfg = load_config(str(tmp_path / "cfg.ini"))
        assert [e["dk_ph_um_inv"] for e in bounds["d2"]] == sorted({r["dk_ph_um_inv"] for r in rows})
        for entry in bounds["d2"]:
            dq = entry["dq_perp_um_inv"]
            var = rel_pos_variance_closed(cfg.beam(dq), cfg.spectrum(entry["dk_ph_um_inv"]), cfg.phase)
            assert abs(var * dq**2 - 1.0) <= 1e-12
        # at L_par 1.3 um, P_z stays above 2/3 for dk_ph up to 2
        assert bounds["purity_z"] == {
            "dq_par_um_inv": cfg.dq_par,
            "reason": "P_z is not below 2/3 at the largest dk_ph, 2.0",
        }

    def test_knee_lies_between_the_rows_that_flip(self, runner, tmp_path):
        text = SWEEP_INI.replace("dq_perp_min = 1.0", "dq_perp_min = 5.0").replace("dk_ph_max = 2.0", "dk_ph_max = 10.0")
        bounds, rows = self.boundaries(runner, tmp_path, text.replace("dk_ph_steps = 2", "dk_ph_steps = 5"))
        flags = {r["dk_ph_um_inv"]: r["longitudinal_entangled"] for r in rows}
        dks = sorted(flags)
        (flip,) = [i for i in range(1, len(dks)) if flags[dks[i]] != flags[dks[i - 1]]]
        assert not flags[dks[flip - 1]] and flags[dks[flip]]
        knee = bounds["purity_z"]
        lo, hi = knee["bracket_um_inv"]
        assert dks[flip - 1] < lo <= knee["dk_ph_um_inv"] <= hi < dks[flip]


class TestSweepFailures:
    @pytest.mark.parametrize(
        "exc",
        [
            ResolutionError("grid too coarse"),
            ConvergenceError("did not converge", best_estimate=0.25, previous_estimate=0.5),
        ],
        ids=["resolution", "convergence"],
    )
    def test_failed_cell_keeps_reason(self, runner, tmp_path, monkeypatch, exc):
        import clpair.measures as measures

        real = measures.purity_sc

        def flaky(beam, spectrum, *args):
            if beam.dq_perp == 1.0 and spectrum.dk_ph == 0.5:
                raise exc
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_sc", flaky)
        out = tmp_path / "o"
        res = runner.invoke(main, ["sweep", "--config", write(tmp_path, SWEEP_INI), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert f"cell (1.0, 0.5) failed: {exc}" in res.output
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        failed = [r for r in rows if r["regime"] == "error"]
        assert len(rows) == 4 and len(failed) == 1
        assert failed[0]["error"] == str(exc)
        if isinstance(exc, ConvergenceError):
            assert failed[0]["best_estimate"] == "0.25"
            assert failed[0]["previous_estimate"] == "0.5"
        else:
            assert "best_estimate" not in failed[0]
        assert all("error" not in r for r in rows if r["regime"] != "error")
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "1.0,0.5,nan,nan,nan,nan,nan,nan,error,"
        assert all(len(line.split(",")) == len(CSV_HEADER) for line in lines)

    def test_consistency_error_in_a_cell_exits_1(self, runner, tmp_path, monkeypatch):
        # a failed internal cross-check is a fault of the program, not an
        # error row: the sweep stops, names no cell and writes no artifact
        import clpair.measures as measures

        real, planted = measures.purity_sc, ConsistencyError("kernel symmetry violated")

        def flaky(beam, spectrum, *args):
            if beam.dq_perp == 1.0 and spectrum.dk_ph == 0.5:
                raise planted
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_sc", flaky)
        out = tmp_path / "o"
        res = runner.invoke(main, ["sweep", "--config", write(tmp_path, SWEEP_INI), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert res.exception is planted
        assert " failed: " not in res.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "regime-map"])
    def test_oversize_plane_exits_1(self, runner, tmp_path, command):
        # 1e11 x 3 cells would take 1.3 PB at 4207 bytes a cell; the plane is
        # refused before either axis is built, so nothing is written
        text = SWEEP_INI.replace("dq_perp_steps = 2", "dq_perp_steps = 100000000000").replace("dk_ph_steps = 2", "dk_ph_steps = 3")
        res = runner.invoke(main, [command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"{command} failed: 3e+11 sweep cells at 4207 bytes each exceed the 64 MiB array budget" in res.output
        assert "Traceback" not in res.output
        assert list((tmp_path / "o").glob("*")) == []

    def test_too_fine_t_grid_cells_are_error_rows(self, runner, tmp_path, monkeypatch):
        # the dk_ph = 1e9 cells span 1.1e11 t-nodes, and the base pass keeps
        # 1,856 (the refined 2,784), above a budget of 1,100 t-nodes at 16
        # bytes (the dk_ph = 0.5 cells keep at most 96, and the plane's 4
        # cells take 16,828 bytes); they fail on their own and every other
        # cell is still written
        import clpair.quadrature as quadrature

        monkeypatch.setattr(quadrature, "MAX_ARRAY_BYTES", 16 * 1100)
        out = tmp_path / "o"
        cfg = write(tmp_path, SWEEP_INI.replace("dk_ph_max = 2.0", "dk_ph_max = 1e9"))
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 1, res.output
        rows = csv_to_rows((out / "sweep.csv").read_text())
        assert [(r["dq_perp_um_inv"], r["dk_ph_um_inv"], r["regime"] == "error") for r in rows] == [
            (1.0, 0.5, False),
            (1.0, 1e9, True),
            (10.0, 0.5, False),
            (10.0, 1e9, True),
        ]
        for dq in (1.0, 10.0):
            assert f"cell ({dq}, 1000000000.0) failed: 1856 purity t-nodes at 16 bytes each exceed" in res.output
        assert "Traceback" not in res.output

    def test_regime_map_names_failed_cells(self, runner, tmp_path, monkeypatch):
        import clpair.measures as measures

        real = measures.purity_sc

        def flaky(beam, spectrum, *args):
            if beam.dq_perp == 10.0 and spectrum.dk_ph == 2.0:
                raise ResolutionError("grid too coarse")
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_sc", flaky)
        out = tmp_path / "o"
        res = runner.invoke(main, ["regime-map", "--config", write(tmp_path, SWEEP_INI), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "cell (10.0, 2.0) failed: grid too coarse" in res.output
        assert res.output.count(" failed: ") == 1
        assert (out / "regime_map.svg").read_text().startswith("<svg")

    def test_regime_map_json_keeps_failed_cell(self, runner, tmp_path, monkeypatch):
        import clpair.measures as measures

        real = measures.purity_sc

        def flaky(beam, spectrum, *args):
            if beam.dq_perp == 1.0 and spectrum.dk_ph == 0.5:
                raise ConvergenceError("did not converge", best_estimate=0.25, previous_estimate=0.5)
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_sc", flaky)
        out = tmp_path / "o"
        res = runner.invoke(main, ["regime-map", "--config", write(tmp_path, SWEEP_INI), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "cell (1.0, 0.5) failed: did not converge" in res.output
        rows = json.loads((out / "regime_map.json").read_text())["rows"]
        assert len(rows) == 4
        assert [r for r in rows if r["regime"] == "error"] == [
            {
                "dq_perp_um_inv": "1.0",
                "dk_ph_um_inv": "0.5",
                **dict.fromkeys(CSV_HEADER[2:-2], "nan"),
                "regime": "error",
                "longitudinal_entangled": "",
                "error": "did not converge",
                "best_estimate": "0.25",
                "previous_estimate": "0.5",
            }
        ]

    def test_purity_sc_above_purity_z_is_an_error_row(self, runner, tmp_path, monkeypatch):
        # a planted defect: purity_sc at 1.01 P_z in one cell; the sweep
        # keeps that cell as an error row carrying P_sc and exits 1
        import clpair.measures as measures

        real = measures.purity_sc

        def high(beam, spectrum, *args):
            if beam.dq_perp == 10.0 and spectrum.dk_ph == 0.5:
                return 1.01 * measures.purity_z(beam, spectrum)
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_sc", high)
        cfg, out = write(tmp_path, SWEEP_INI), tmp_path / "o"
        res = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "cell (10.0, 0.5) failed: purity_sc " in res.output and " exceeds purity_z " in res.output
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        failed = [r for r in rows if r["regime"] == "error"]
        assert len(rows) == 4 and len(failed) == 1
        run = load_config(cfg)
        assert float(failed[0]["best_estimate"]) == high(run.beam(10.0), run.spectrum(0.5))
        assert "previous_estimate" not in failed[0]

    def test_measure_at_long_coherence_is_below_purity_z(self, runner, tmp_path):
        # at L_par 590 um the longitudinal Gaussian is far narrower than the
        # radial nodes; pointwise it gave purity_sc 8.76e-5 against P_z
        # 6.16e-5, product-integrated it gives the delta-limit's 1.2917235e-7
        cfg = write(
            tmp_path,
            "[beam]\nkinetic_energy_kev = 2.69\nl_par_um = 590\ndq_perp_um_inv = 1.24\n\n"
            "[spectrum]\nk_c_um_inv = 49.3\ndk_ph_um_inv = 19.7\n",
        )
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        (row,) = csv_to_rows((tmp_path / "o" / "measure.csv").read_text())
        assert row["purity_sc"] == pytest.approx(1.2917235e-7, rel=PURITY_REL_TOL, abs=0.0)
        assert row["purity_sc"] < row["purity_z"]

    def test_every_row_is_evaluate_point_row(self, tmp_path):
        import clpair.measures as measures

        cfg = load_config(write(tmp_path, SWEEP_INI))
        rows = run_sweep(cfg)
        assert len(rows) == 4
        for r in rows:
            dq, dk = r["dq_perp_um_inv"], r["dk_ph_um_inv"]
            res = measures.evaluate_point(cfg.beam(dq), cfg.spectrum(dk), cfg.phase)
            assert r == {
                "dq_perp_um_inv": dq,
                "dk_ph_um_inv": dk,
                "purity_sc": res.purity_sc,
                "purity_z": res.purity_z,
                "var_rel_pos_um2": res.var_rel_pos,
                "var_tot_wv_um_inv2": res.var_tot_wavevector,
                "d2": res.d2,
                "schmidt_number": res.schmidt_number,
                "regime": res.regime.value,
                "longitudinal_entangled": res.longitudinal_entangled,
            }

    def test_failed_column_keeps_purity_sc_reason_first(self, tmp_path, monkeypatch):
        # purity_z fails in the dk_ph = 2 column and purity_sc at one of its
        # cells: that cell reports purity_sc, the other cell purity_z, and a
        # failed purity_z is not kept for the next cell of its column
        import clpair.measures as measures

        real_sc, calls = measures.purity_sc, []

        def flaky_sc(beam, spectrum, *args):
            if beam.dq_perp == 10.0 and spectrum.dk_ph == 2.0:
                raise ConvergenceError("purity_sc did not converge")
            return real_sc(beam, spectrum, *args)

        def flaky_z(beam, spectrum, *args):
            calls.append(beam.dq_perp)
            raise ConvergenceError("purity_z failed")

        monkeypatch.setattr(measures, "purity_sc", flaky_sc)
        monkeypatch.setattr(measures, "purity_z", flaky_z)
        # one thread takes the cells in row-major order, so the calls come in it
        rows = run_sweep(load_config(write(tmp_path, SWEEP_INI)), threads=1)
        errors = {(r["dq_perp_um_inv"], r["dk_ph_um_inv"]): r["error"] for r in rows}
        assert errors == {
            (1.0, 0.5): "purity_z failed",
            (1.0, 2.0): "purity_z failed",
            (10.0, 0.5): "purity_z failed",
            (10.0, 2.0): "purity_sc did not converge",
        }
        assert calls == [1.0, 1.0, 10.0]


class TestInputValidation:
    @pytest.mark.parametrize("variant", ["polar_linear", "radial_kc", "radial_dk"])
    def test_negative_xi_exits_2(self, runner, tmp_path, variant):
        cfg = write(tmp_path, BASE_INI + f"\n[phase]\nvariant = {variant}\nxi = -5\n")
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "xi" in res.output

    @pytest.mark.parametrize("variant,xi", [("polar_linear", -1.0), ("radial_kc", -5.0), ("radial_dk", -0.1)])
    def test_negative_xi_rejected_by_phase(self, variant, xi):
        with pytest.raises(DomainError):
            PhaseModel(variant, xi)

    @pytest.mark.parametrize(
        "section,named",
        [
            ("variant = spiral", "variant"),
            ("xi = 2.5", "xi"),
            ("variant = radial_dk\nxi = -1", "xi"),
            ("variant = polar_linear\nxi = inf", "xi"),
            ("variant = radial_kc\nxi = nan", "xi"),
            ("variant = spiral\nxi = 2.5", "variant"),
        ],
        ids=["unknown", "xi_without_variant", "negative", "inf", "nan", "unknown_with_xi"],
    )
    def test_bad_phase_exits_2_naming_it(self, runner, tmp_path, section, named):
        cfg = write(tmp_path, BASE_INI + f"\n[phase]\n{section}\n")
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert named in res.output

    @pytest.mark.parametrize("command", ["sweep", "regime-map"])
    def test_sweep_dq_perp_beyond_small_recoil_exits_2(self, runner, tmp_path, command):
        # the sweep's largest dq_perp is checked while the config loads, as
        # measure checks its own, before any cell is computed
        out = tmp_path / "o"
        cfg = write(tmp_path, SWEEP_INI.replace("dq_perp_max = 10.0", "dq_perp_max = 1e7"))
        res = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
        assert_config_error(res)
        assert "dq_perp = 10000000.0 violates small-recoil assumption" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["", "variant = zero\n"], ids=["default", "zero"])
    def test_xi_under_zero_variant_exits_2(self, runner, tmp_path, variant):
        cfg = write(tmp_path, BASE_INI + f"\n[phase]\n{variant}xi = 100\n")
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "phase xi = 100.0 needs a variant other than zero" in res.output

    def test_zero_variant_with_zero_xi_round_trips(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE_INI + "\n[phase]\nvariant = zero\nxi = 0.0\n"))
        assert "[phase]\nvariant = zero\nxi = 0.0\n" in dump_config(cfg)
        assert load_config(write(tmp_path, dump_config(cfg), "dumped.ini")) == cfg

    def test_polar_linear_phase_is_consistent(self, tmp_path):
        from clpair.measures import rel_pos_variance_closed
        from reference_variance import rel_pos_variance_quadrature

        ini = BASE_INI.replace("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 0.3") + "\n[phase]\nvariant = polar_linear\nxi = 1.0\n"
        cfg = load_config(write(tmp_path, ini))
        beam, spectrum, phase = cfg.beam(), cfg.spectrum(), cfg.phase
        # the closed form integrates the radial factor of D_eta, the
        # quadrature the gradient (a cos(theta) / k)^2 with a^2 = 14 xi1 / 3
        assert phase == PhaseModel("polar_linear", 1.0)
        assert rel_pos_variance_quadrature(beam, spectrum, phase) == pytest.approx(
            rel_pos_variance_closed(beam, spectrum, phase), rel=1e-8
        )

    @pytest.mark.parametrize(
        "old,new",
        [
            ("kinetic_energy_kev = 200.0", "kinetic_energy_kev = -200.0"),
            ("l_par_um = 1.3", "l_par_um = 0"),
            ("l_par_um = 1.3", "l_par_um = -1.3"),
            ("dq_perp_um_inv = 3.0", "dq_perp_um_inv = nan"),
            ("lambda_c_um = 0.5", "lambda_c_um = 0"),
            ("dk_ph_um_inv = 1.0", "dk_ph_um_inv = inf"),
            ("lambda_c_um = 0.5", "lambda_c_um = 1e-300"),
        ],
        ids=["negative_energy", "zero_l_par", "negative_l_par", "nan_dq_perp", "zero_lambda", "inf_dk", "overflowing_k_c"],
    )
    def test_beam_and_spectrum(self, runner, tmp_path, old, new):
        cfg = write(tmp_path, BASE_INI.replace(old, new))
        assert_config_error(runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")]))

    @pytest.mark.parametrize(
        "section",
        [
            # the tolerances and sample count are the library's: even the
            # old defaults are refused
            "[quadrature]\nrel_tol = 0.0001\nabs_tol = 5e-05\nmc_samples = 200000",
            "[phase]\nvariant = radial_kc\nxi = inf",
            "[phase]\nxi = nan",
        ],
    )
    def test_tolerances_thresholds_and_mc(self, runner, tmp_path, section):
        cfg = write(tmp_path, BASE_INI + "\n" + section + "\n")
        for argv in (["measure"], ["validate"]):
            assert_config_error(runner.invoke(main, [*argv, "--config", cfg, "--out", str(tmp_path / "o")]))

    def test_negative_seed_option(self, runner, tmp_path):
        # click's range check, as for --threads: before any output or computation
        cfg = write(tmp_path, BASE_INI)
        res = runner.invoke(main, ["validate", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--seed': -1 is not in the range x>=0." in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "o").exists()

    def test_sample_floor_is_shared(self, tmp_path):
        from clpair.constants import MC_MIN_SAMPLES
        from clpair.oracles import mc_purity

        cfg = load_config(write(tmp_path, BASE_INI))
        with pytest.raises(DomainError):
            mc_purity(cfg.beam(), cfg.spectrum(), n=MC_MIN_SAMPLES - 1)


class TestWriteFactor:
    def test_values_read_back_exactly(self, tmp_path):
        # each value as its repr, so every double reads back bit for bit: the
        # least subnormal, -0.0, huge and tiny exponents, both notations
        x = np.array([-1.5, -1e-300, -0.0, 0.1, 3.0, 1e16])
        y = np.array([5e-324, 1e-17, 1.0 / 3.0, 1e300, 123456789.0, 0.0])
        path = tmp_path / "f.csv"
        _write_factor(path, "x,y", x, y)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y" and len(lines) == x.size + 1
        assert lines[1:] == [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got.view(np.uint64), np.column_stack((x, y)).view(np.uint64))


class TestRuntimeImports:
    # the modules that only some commands need, imported when they run
    LAZY = ("clpair.render", "clpair.distributions", "clpair.oracles")

    def test_measure_loads_no_scipy(self, tmp_path):
        # scipy is a test dependency only: a CLI call at the README point,
        # and importing every clpair module, must not load it; the call
        # itself loads none of the lazily imported modules
        import subprocess
        import sys

        cfg = write(tmp_path, BASE_INI.replace("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 0.3"))
        code = (
            "import importlib, pkgutil, sys\n"
            "import clpair\n"
            "from clpair.cli import main\n"
            f"main(['measure', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}], standalone_mode=False)\n"
            f"print(sorted(m for m in {self.LAZY!r} if m in sys.modules))\n"
            "for info in pkgutil.iter_modules(clpair.__path__):\n"
            "    importlib.import_module('clpair.' + info.name)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-2:] == ["[]", "[]"]
        assert (tmp_path / "o" / "measure.csv").exists()

    def test_dist_loads_only_the_distributions(self, tmp_path):
        import subprocess
        import sys

        cfg = write(tmp_path, BASE_INI)
        code = (
            "import sys\n"
            "from clpair.cli import main\n"
            f"main(['dist', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}], standalone_mode=False)\n"
            f"print(sorted(m for m in {self.LAZY!r} if m in sys.modules))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == str(["clpair.distributions"])

    # stdlib modules that only reading or writing an artifact needs: `csv`
    # for a sweep CSV, `json` for a JSON and `hashlib` for its config hash;
    # `platform` none (the Python version comes from `sys.version`)
    UNUSED = ("csv", "hashlib", "json", "platform")

    def test_no_numpy_before_numerical_work(self, tmp_path):
        # `render`, `--help`, and a config error in any command, whether in
        # the file, found once it is read or in its output directory, exit
        # before anything computes:
        # none of them loads numpy, and neither does importing the package.
        # Neither does loading a config, and none of them but a `render`
        # that reads its CSV loads a module of UNUSED that click has not
        # loaded already (on Linux, click's `uuid` loads `platform`), so
        # clpair.cli imports none of them at module level.
        import subprocess
        import sys

        (tmp_path / "sweep.csv").write_text(PLANE_CSV)
        good = write(tmp_path, BASE_INI, "good.ini")
        bad = write(tmp_path, SWEEP_INI.replace("l_par_um = 1.3", "l_par_um = 1.3\ndq_par_um_inv = 4.8"), "bad.ini")
        no_dq_perp = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0\n", ""), "no_dq_perp.ini")
        swept = write(tmp_path, SWEEP_INI, "sweep.ini")
        out = ["--out", str(tmp_path)]
        # an output directory that cannot be made: a path under a file
        bad_out = ["--out", str(tmp_path / "good.ini" / "o")]
        # (argv, exit status), the renders that read their CSV last
        calls = [
            (["--help"], 0),
            *(([cmd, "--config", bad, *out], 2) for cmd in ("measure", "sweep", "dist", "regime-map", "validate")),
            (["render", "--config", bad, "--field", "d2", *out], 2),
            *(([cmd, "--config", no_dq_perp, *out], 2) for cmd in ("measure", "dist", "validate")),
            *(([cmd, "--config", good, *out], 2) for cmd in ("sweep", "regime-map")),
            (["render", "--config", good, "--field", "nonesuch", *out], 2),
            *(([cmd, "--config", swept, *bad_out], 2) for cmd in ("measure", "sweep", "dist", "regime-map", "validate")),
            (["render", "--config", good, "--field", "d2", *out], 0),
            (["render", "--config", good, "--field", "regime", *out], 0),
        ]
        code = (
            "import sys\n"
            "import click\n"
            f"before = {{m for m in {self.UNUSED!r} if m in sys.modules}}\n"
            "def loaded():\n"
            f"    return [m for m in {self.UNUSED!r} if m in sys.modules and m not in before]\n"
            "import clpair\n"
            "import clpair.cli\n"
            "from clpair.cli import load_config, main\n"
            "print('@import', 0, 'numpy' in sys.modules, loaded())\n"
            f"print('@globals', [m for m in {self.UNUSED!r} if m in vars(clpair.cli)])\n"
            f"load_config({good!r})\n"
            "print('@load_config', 0, 'numpy' in sys.modules, loaded())\n"
            f"for argv in {[argv for argv, _ in calls]!r}:\n"
            "    try:\n"
            "        status = main(argv, standalone_mode=False) or 0\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "    print('@' + argv[0], status, 'numpy' in sys.modules, loaded())\n"
            "import clpair.measures\n"
            "print('@measures', 0, 'numpy' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
        assert res.returncode == 0, res.stderr
        # the last line shows that the check sees numpy once it is loaded
        expected = [
            "@import 0 False []",
            "@globals []",
            "@load_config 0 False []",
            *(f"@{argv[0]} {status} False {['csv'] if status == 0 and argv[0] == 'render' else []}" for argv, status in calls),
            "@measures 0 True",
        ]
        assert [line for line in res.stdout.splitlines() if line.startswith("@")] == expected
        assert (tmp_path / "render_regime.svg").exists()

    def test_package_names_resolve_lazily(self):
        import importlib
        import subprocess
        import sys

        import clpair

        res = subprocess.run(
            [sys.executable, "-c", "import sys, clpair\nprint('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"
        for module, names in self.EXPORTED.items():
            for name in names:
                assert name in dir(clpair)
                assert getattr(clpair, name) is getattr(importlib.import_module(f"clpair.{module}"), name)
        assert sorted(clpair.__all__) == sorted(["__version__", *(n for names in self.EXPORTED.values() for n in names)])
        with pytest.raises(AttributeError):
            clpair.nonesuch

    # every name the package exported when its __init__ imported them all
    EXPORTED = {
        "constants": ("ELECTRON_REST_KEV", "HBARC_KEV_UM"),
        "errors": (
            "ConfigError",
            "ConsistencyError",
            "ConvergenceError",
            "DomainError",
            "ResolutionError",
        ),
        "model": (
            "BeamParams",
            "PhaseModel",
            "SpectrumModel",
            "derive_kinematics",
            "eval_gamma",
            "spectrum_normalization",
            "wavelength_to_wavenumbers",
        ),
        "measures": (
            "MeasureResult",
            "Regime",
            "classify_regime",
            "evaluate_point",
            "purity_sc",
            "purity_z",
            "rel_pos_variance_closed",
            "total_wavevector_variance",
        ),
    }

    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
    def test_blas_threads_default_to_one(self, preset, expected):
        # importing clpair pins OpenBLAS to one thread unless the
        # environment already chose a count
        import os
        import subprocess
        import sys

        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, clpair\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(env), timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == expected


# g1, the benchmark's wide-spectrum `dist` point, where the position
# kernel's diagonal check raises ConsistencyError
G1_INI = BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 31.2763").replace(
    "dk_ph_um_inv = 1.0", "dk_ph_um_inv = 9.61536"
)
# a point whose purity quadrature does not converge once `unconverged_at`
# plants it: `measure` exits 1
UNCONVERGED_INI = BASE_INI.replace("l_par_um = 1.3", "l_par_um = 13").replace("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 10.0")
# the entry point that the `clpair` script runs
ENTRY = "from clpair.cli import main; main(prog_name='clpair')"


class TestProcessScope:
    """`_Main.invoke` switches the cyclic collector off while a command runs
    and restores it after, and freezes the heap only when the process exits."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "not-collecting"])
    @pytest.mark.parametrize(
        "command,text,ends",
        [
            ("measure", BASE_INI, 0),
            ("measure", BASE_INI + "\n[output]\nout_dir = .\n", 2),
            ("measure", UNCONVERGED_INI, 1),
            ("dist", G1_INI, ConsistencyError),
        ],
        ids=["pass", "config-error", "failure", "consistency"],
    )
    def test_collector_state_is_the_callers(self, tmp_path, monkeypatch, enabled, command, text, ends):
        import gc

        import clpair.cli as cli

        during, load = [], cli.load_config
        monkeypatch.setattr(cli, "load_config", lambda path: during.append(gc.isenabled()) or load(path))
        unconverged_at(monkeypatch, 10.0)
        argv = [command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]
        was, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            if ends is ConsistencyError:
                with pytest.raises(ConsistencyError, match="kernel diagonal"):
                    main(argv, standalone_mode=False)
            else:
                try:
                    status = main(argv, standalone_mode=False) or 0
                except SystemExit as exc:
                    status = exc.code
                assert status == ends
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]
        assert after is enabled
        assert gc.get_freeze_count() == frozen

    def test_exit_freeze_registered_once(self, tmp_path, monkeypatch):
        # atexit's exit handlers kept in a list: register appends a
        # function, unregister drops every occurrence of it
        import atexit
        import gc

        handlers = []

        def unregister(func):
            handlers[:] = [f for f in handlers if f != func]

        monkeypatch.setattr(atexit, "register", handlers.append)
        monkeypatch.setattr(atexit, "unregister", unregister)
        argv = ["measure", "--config", write(tmp_path, BASE_INI), "--out", str(tmp_path / "o")]
        for _ in range(2):
            main(argv, standalone_mode=False)
        assert handlers == [gc.freeze]

    def test_measure_subprocess_writes_what_a_call_does(self, tmp_path):
        # the CSV is complete when the process exits; an exit handler that
        # the test registers first runs last, after the heap is frozen
        import subprocess
        import sys

        cfg = write(tmp_path, BASE_INI)
        main(["measure", "--config", cfg, "--out", str(tmp_path / "call")], standalone_mode=False)
        code = "import atexit, gc\natexit.register(lambda: print('@frozen', gc.get_freeze_count() > 0))\n" + ENTRY
        res = subprocess.run(
            [sys.executable, "-c", code, "measure", "--config", cfg, "--out", str(tmp_path / "process")],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        text = (tmp_path / "call" / "measure.csv").read_bytes()
        assert (tmp_path / "process" / "measure.csv").read_bytes() == text
        assert res.stdout == text.decode() + "@frozen True\n"

    def test_consistency_error_keeps_its_traceback(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "o"
        res = subprocess.run(
            [sys.executable, "-c", ENTRY, "dist", "--config", write(tmp_path, G1_INI), "--out", str(out)],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert res.returncode == 1
        assert res.stderr.startswith("Traceback (most recent call last):")
        last = "clpair.errors.ConsistencyError: position kernel diagonal disagrees with the photon marginal"
        assert res.stderr.splitlines()[-1] == last
        assert list(out.iterdir()) == []

    def test_validate_at_a_failing_point_draws_and_writes_nothing(self, tmp_path, monkeypatch):
        # the position grid is the suite's first oracle: at g1 `validate`
        # raises from it before the Monte Carlo sampler is built
        import clpair.oracles as oracles

        sampled = []
        monkeypatch.setattr(oracles, "GammaSampler", lambda spectrum: sampled.append(spectrum))
        out = tmp_path / "o"
        with pytest.raises(ConsistencyError, match="kernel diagonal"):
            main(["validate", "--config", write(tmp_path, G1_INI), "--out", str(out)], standalone_mode=False)
        assert sampled == [] and list(out.iterdir()) == []


class TestProvenancePinned:
    @pytest.mark.parametrize(
        "text,digest",
        [
            (BASE_INI, "897c34d909f97e806ffbee8143b1aa19a9110a3e2c73c2af7217ea225b59fba7"),
            (SWEEP_INI, "f93f0e6871287d069ff5829bec79f720805255d62961a25a44fdb103e495269b"),
            (BASE_INI + "\n[phase]\nvariant = zero\n", "897c34d909f97e806ffbee8143b1aa19a9110a3e2c73c2af7217ea225b59fba7"),
            (
                BASE_INI + "\n[phase]\nvariant = polar_linear\nxi = 0.25\n",
                "b62f64a1095ac23867401ff6642512938be7a6f12b8de1f98d251361e62af5ec",
            ),
            (
                BASE_INI + "\n[phase]\nvariant = radial_kc\nxi = 100\n",
                "8e48526497763fed15fdc4cbd2705fa8f21b96bd215e681af9d34a9a828428f2",
            ),
            (
                BASE_INI + "\n[phase]\nvariant = radial_dk\nxi = 2.5\n",
                "8dfccb4fb98ac096452433843263e7afec10cf1efe190984b1afc2a132343943",
            ),
        ],
        ids=["base", "sweep", "zero", "polar_linear", "radial_kc", "radial_dk"],
    )
    def test_config_hash(self, tmp_path, text, digest):
        assert config_hash(load_config(write(tmp_path, text))) == digest


def _last_cells(regime, flag):
    """An edit of a sweep CSV's lines that sets the regime and
    longitudinal_entangled cells of its first row to these CSV fields."""

    def edit(lines):
        head = lines[1].rsplit(",", 2)[0]
        return [lines[0], f"{head},{regime},{flag}", *lines[2:]]

    return edit


class TestExitMapping:
    @pytest.mark.parametrize(
        "argv",
        [
            ["measure"],
            ["sweep"],
            ["dist"],
            ["regime-map"],
            ["validate"],
            ["render", "--field", "d2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_maps_bad_config_to_2(self, runner, tmp_path, argv):
        cfg = write(tmp_path, SWEEP_INI.replace("l_par_um = 1.3", "l_par_um = 1.3\ndq_par_um_inv = 4.8"))
        assert_config_error(runner.invoke(main, [*argv, "--config", cfg, "--out", str(tmp_path / "o")]))

    def test_config_needs_spectrum(self, runner, tmp_path):
        cfg = write(tmp_path, BASE_INI.split("[spectrum]")[0])
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "config must contain [beam] and [spectrum] sections" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep", "regime-map"])
    def test_sweep_needs_sweep_section(self, runner, tmp_path, command):
        # refused before --out is made
        res = runner.invoke(main, [command, "--config", write(tmp_path, BASE_INI), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "config error: sweep commands need a [sweep] section" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["measure"], ["dist"], ["validate"]], ids=lambda argv: argv[0])
    def test_point_commands_need_dq_perp(self, runner, tmp_path, argv):
        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0\n", ""))
        res = runner.invoke(main, [*argv, "--config", cfg, "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "l_perp_um" in res.output

    @pytest.mark.parametrize("where", ["file", "under_file"])
    @pytest.mark.parametrize(
        "argv",
        [["measure"], ["sweep"], ["dist"], ["regime-map"], ["validate"], ["render", "--field", "d2"]],
        ids=lambda argv: argv[0],
    )
    def test_unusable_out_exits_2(self, runner, tmp_path, argv, where):
        # --out naming a file (FileExistsError) or a path under one
        # (NotADirectoryError)
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" if where == "file" else tmp_path / "f" / "o"
        res = runner.invoke(main, [*argv, "--config", write(tmp_path, SWEEP_INI), "--out", str(out)])
        assert_config_error(res)
        assert "cannot use output directory" in res.output

    def test_unusable_out_skips_the_sweep(self, runner, tmp_path, monkeypatch):
        # the output directory is checked before the sweep runs, not after
        import clpair.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg, threads: calls.append(cfg) or [])
        (tmp_path / "f").write_text("")
        res = runner.invoke(main, ["sweep", "--config", write(tmp_path, SWEEP_INI), "--out", str(tmp_path / "f")])
        assert_config_error(res)
        assert calls == []

    def test_config_not_utf8_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(BASE_INI.encode() + b"# \xff\xfe\n")
        res = runner.invoke(main, ["measure", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "cannot read config" in res.output

    @pytest.mark.parametrize("what", ["directory", "not_utf8"])
    def test_render_unreadable_input_exits_2(self, runner, tmp_path, what):
        cfg = write(tmp_path, SWEEP_INI)
        src = tmp_path / "in.csv"
        if what == "directory":
            src.mkdir()
        else:
            src.write_bytes(",".join(CSV_HEADER).encode() + b"\n\xff\xfe\n")
        res = runner.invoke(main, ["render", "--config", cfg, "--field", "d2", "--input", str(src), "--out", str(tmp_path)])
        assert_config_error(res)
        assert "cannot read sweep CSV" in res.output

    def test_render_bad_csv_exits_2(self, runner, tmp_path):
        cfg = write(tmp_path, SWEEP_INI)
        ragged = rows_to_csv(run_sweep(load_config(cfg))).splitlines()[:-1]
        src = tmp_path / "ragged.csv"
        src.write_text("\n".join(ragged) + "\n")
        res = runner.invoke(main, ["render", "--config", cfg, "--field", "d2", "--input", str(src), "--out", str(tmp_path)])
        assert_config_error(res)
        assert "rectangular" in res.output

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: lines + lines[1:2], "repeats"),
            (lambda lines: [re.sub(r"^1\.0,", "-1.0,", line) for line in lines], "positive and finite"),
            (lambda lines: [re.sub(r"^1\.0,", "0.0,", line) for line in lines], "positive and finite"),
            (lambda lines: [re.sub(r"^1\.0,", "inf,", line) for line in lines], "positive and finite"),
            # rows_to_csv writes a Regime value or error, and true/false,
            # empty only on an error row
            (_last_cells('"<g onload=""x"">"', "false"), "is not one of"),
            (_last_cells("D", "false"), "is not one of"),
            (_last_cells("A", "yes"), "is not true or false"),
            (_last_cells("A", "True"), "is not true or false"),
            (_last_cells("A", ""), "is not true or false"),
            (_last_cells("error", "true"), "must be empty on an error row"),
            (_last_cells("error", "false"), "must be empty on an error row"),
        ],
        ids=["repeated_cell", "negative", "zero", "infinite", "markup_regime", "unknown_regime", "yes_flag",
             "capital_flag", "empty_flag_on_a_result", "true_flag_on_an_error", "false_flag_on_an_error"],
    )
    def test_render_bad_cells_exit_2(self, runner, tmp_path, edit, message):
        cfg = write(tmp_path, SWEEP_INI)
        lines = rows_to_csv(run_sweep(load_config(cfg))).splitlines()
        src = tmp_path / "bad.csv"
        src.write_text("\n".join(edit(lines)) + "\n")
        res = runner.invoke(main, ["render", "--config", cfg, "--field", "d2", "--input", str(src), "--out", str(tmp_path)])
        assert_config_error(res)
        assert message in res.output

    def test_measure_convergence_failure_exits_1(self, runner, tmp_path, monkeypatch):
        import clpair.measures as measures

        def fail(*args):
            raise ConvergenceError("purity did not converge", best_estimate=0.25)

        monkeypatch.setattr(measures, "evaluate_point", fail)
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, BASE_INI), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "measure failed: purity did not converge" in res.output
        assert not (tmp_path / "o" / "measure.csv").exists()

    @pytest.mark.parametrize(
        "failing,left",
        [("joint_position", []), ("momentum_grid", ["dist_relative.csv"])],
        ids=["position", "momentum"],
    )
    def test_dist_domain_failure_exits_1(self, runner, tmp_path, monkeypatch, failing, left):
        # dist builds the position grid and writes its factor first, then
        # the momentum grid's: a failure leaves the CSV written before it
        import clpair.distributions as distributions

        def fail(*args):
            raise DomainError("grid out of range")

        monkeypatch.setattr(distributions, failing, fail)
        res = runner.invoke(main, ["dist", "--config", write(tmp_path, BASE_INI), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "dist failed: grid out of range" in res.output
        assert sorted(p.name for p in (tmp_path / "o").glob("*")) == left

    def test_dist_oversize_lattice_exits_1(self, runner, tmp_path):
        # at (1e-3, 1) the position lattice needs 143 x 245231 cells, 535
        # MiB of density and lags; joint_position refuses it first, so no
        # file is written
        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1e-3"))
        res = runner.invoke(main, ["dist", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "dist failed: 3.507e+07 position lattice cells at 16 bytes each exceed the 64 MiB array budget" in res.output
        assert "Traceback" not in res.output
        assert list((tmp_path / "o").glob("*")) == []

    def test_dist_lag_index_over_cap_exits_1(self, runner, tmp_path):
        # at L_par 1e10 um the lattice is 20,163 cells, but its lags
        # span 2.6e11 values: the index of the used ones, a flag and a rank
        # a lag, would take 2.1 TiB, and joint_position refuses it before
        # it allocates, so no file is written
        cfg = write(tmp_path, BASE_INI.replace("l_par_um = 1.3", "l_par_um = 1e10"))
        res = runner.invoke(main, ["dist", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "dist failed: 2.606e+11 position lattice lags at 9 bytes each exceed the 64 MiB array budget" in res.output
        assert "Traceback" not in res.output
        assert list((tmp_path / "o").glob("*")) == []

    def test_dist_rho_rule_over_budget_exits_1(self, runner, tmp_path):
        # at u = 2e-8, w = 1e-8 the lattice is 141 x 281 cells, but the
        # kernel's rho rule would lay out about 8e8 nodes (26 GB at 32 bytes
        # a node); _rho_rule refuses once the panels it has laid out pass
        # the budget, before any array of its size exists
        cfg = write(
            tmp_path,
            BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 2.5e-7").replace(
                "dk_ph_um_inv = 1.0", "dk_ph_um_inv = 1.2566e-7"
            ),
        )
        start = time.perf_counter()
        res = runner.invoke(main, ["dist", "--config", cfg, "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 5.0
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert re.search(r"dist failed: [\d.e+]+ position kernel rho nodes at 32 bytes each exceed the 64 MiB array budget", res.output)
        assert "Traceback" not in res.output
        assert list((tmp_path / "o").glob("*")) == []

    def test_refusal_rounds_the_count(self, runner, tmp_path):
        # at u = 1.03e-123, just inside the box, the lattice's cell count has
        # 126 digits; the refusal states it to four significant digits
        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1.3e-122"))
        res = runner.invoke(main, ["dist", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1, res.output
        assert "position lattice cells at 16 bytes each exceed the 64 MiB array budget" in res.output
        assert max(map(len, re.findall(r"\d+", res.output))) <= 4

    def test_measure_wide_t_span_is_computed(self, runner, tmp_path):
        # dq_perp 1e-7 spans 2.7e9 t-nodes, of which purity_sc keeps and
        # lays out 576
        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1e-7"))
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        row = csv_to_rows((tmp_path / "o" / "measure.csv").read_text())[0]
        assert 0.0 < row["purity_sc"] < 1e-15

    def test_subprocess_prints_no_traceback(self, tmp_path):
        import subprocess
        import sys

        cfg = write(tmp_path, BASE_INI.replace("kinetic_energy_kev = 200.0", "kinetic_energy_kev = -200.0"))
        res = subprocess.run(
            [sys.executable, "-c", "from clpair.cli import main; main()", "measure", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert res.returncode == 2
        assert res.stderr.startswith("config error: ") and "Traceback" not in res.stderr


# inputs outside the admissible box, each a list of (old, new) edits of
# SWEEP_INI, with the group its config error names; before the box each
# ended in a traceback, a wrong NaN, an exit 1 from a builder's overflow
# branch, or exit 2 only through a catch-all ArithmeticError handler
_OUTSIDE_BOX = {
    "l_par-1e200": ([("l_par_um = 1.3", "l_par_um = 1e200")], "l = dq_par (v/c) / k_c"),
    "l_par-1e160": ([("l_par_um = 1.3", "l_par_um = 1e160")], "l = dq_par (v/c) / k_c"),
    "l_par-1e50": ([("l_par_um = 1.3", "l_par_um = 1e50")], "l = dq_par (v/c) / k_c = 3.47"),
    "dq_perp-1e-320": ([("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1e-320")], "u = dq_perp / k_c = 7.95e-322"),
    "dq_perp-1e-320-l_par-6e160": (
        [("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1e-320"), ("l_par_um = 1.3", "l_par_um = 6e160")],
        "l = dq_par (v/c) / k_c",
    ),
    "sweep-dk_ph_min-1e-200": ([("dk_ph_min = 0.5", "dk_ph_min = 1e-200")], "w = dk_ph / k_c = 7.95"),
    "sweep-dq_perp_min-1e-130": ([("dq_perp_min = 1.0", "dq_perp_min = 1e-130")], "u = dq_perp / k_c = 7.95"),
    "energy-1e200": ([("kinetic_energy_kev = 200.0", "kinetic_energy_kev = 1e200")], "kinetic energy (keV) = 1e+200"),
    "lambda_c-1e-300": ([("lambda_c_um = 0.5", "lambda_c_um = 1e-300")], "k_c = 6.28"),
    "lambda_c-1e300": ([("lambda_c_um = 0.5", "lambda_c_um = 1e300")], "k_c = 6.28"),
    "dk_ph-1e200": ([("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 1e200")], "w = dk_ph / k_c = 7.95"),
    "dk_ph-1e-200": ([("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 1e-200")], "w = dk_ph / k_c = 7.95"),
    "dlambda-1e300": ([("dk_ph_um_inv = 1.0", "dlambda_um = 1e300")], "w = dk_ph / k_c = 2"),
    "dlambda-1e-300": ([("dk_ph_um_inv = 1.0", "dlambda_um = 1e-300")], "w = dk_ph / k_c = 1.99"),
    "lambda_c-1e-170-dlambda": (
        [("lambda_c_um = 0.5", "lambda_c_um = 1e-170"), ("dk_ph_um_inv = 1.0", "dlambda_um = 0.01")],
        "k_c = 6.28",
    ),
}


def outside_box_ini(edits) -> str:
    text = SWEEP_INI
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


class TestAdmissibleBox:
    """A config outside the admissible box in u, w, l, k_c or the energy
    is a config error while it loads: exit 2 naming the group, no
    traceback, and no output directory made, in every command."""

    @pytest.mark.parametrize("command", ["measure", "dist", "validate", "sweep", "regime-map"])
    @pytest.mark.parametrize("case", list(_OUTSIDE_BOX))
    def test_exits_2_at_load(self, runner, tmp_path, case, command):
        edits, group = _OUTSIDE_BOX[case]
        res = runner.invoke(main, [command, "--config", write(tmp_path, outside_box_ini(edits)), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "outside the admissible box" in res.output
        assert group in res.output
        assert not (tmp_path / "o").exists()

    def test_zero_k_c_with_dlambda_exits_2(self, runner, tmp_path):
        # k_c = 0 has no wavelength to convert dlambda_um with
        text = outside_box_ini([("lambda_c_um = 0.5", "k_c_um_inv = 0"), ("dk_ph_um_inv = 1.0", "dlambda_um = 0.01")])
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "wavelength and width must be positive" in res.output

    @pytest.mark.parametrize(
        "old,new",
        [("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1e-7"), ("l_par_um = 1.3", "l_par_um = 1e10")],
        ids=["dq_perp-1e-7", "l_par-1e10"],
    )
    def test_loads_inside_the_box(self, tmp_path, old, new):
        # both are computed (or refused by the array budget) rather than refused at load
        load_config(write(tmp_path, SWEEP_INI.replace(old, new)))

    def test_child_process_prints_no_warning(self, tmp_path):
        # dq_perp 1e-320 once divided Monte Carlo samples by dq_perp^2 = 0;
        # now it stops at load, in a child where numpy's warnings reach
        # stderr as they do for a user
        import subprocess
        import sys

        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0", "dq_perp_um_inv = 1e-320"))
        res = subprocess.run(
            [sys.executable, "-c", "from clpair.cli import main; main()", "validate", "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert res.returncode == 2
        assert res.stderr.startswith("config error: u = dq_perp / k_c = 7.95e-322 is outside the admissible box, past its edge 1e-123")
        assert "Warning" not in res.stderr and "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()


_WILD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-(10**6), max_value=10**7).map(str),
    st.sampled_from(["nan", "inf", "-inf", "abc", "", "0", "-1", "1e400", "1e-320"]),
)
_WIDTH = st.floats(min_value=0.05, max_value=60.0).map(repr)
_STEPS = st.integers(min_value=1, max_value=30).map(str)

# every documented key with the values a user would plausibly write
_DOCUMENTED_KEYS = {
    "beam": {
        "kinetic_energy_kev": st.floats(min_value=1.0, max_value=3000.0).map(repr),
        "l_par_um": _WIDTH,
        "dq_par_um_inv": _WIDTH,
        "l_perp_um": _WIDTH,
        "dq_perp_um_inv": _WIDTH,
    },
    "spectrum": {"lambda_c_um": _WIDTH, "k_c_um_inv": _WIDTH, "dlambda_um": _WIDTH, "dk_ph_um_inv": _WIDTH},
    "sweep": {
        "dq_perp_min": _WIDTH,
        "dq_perp_max": _WIDTH,
        "dq_perp_steps": _STEPS,
        "dk_ph_min": _WIDTH,
        "dk_ph_max": _WIDTH,
        "dk_ph_steps": _STEPS,
    },
    "phase": {
        "variant": st.sampled_from(["zero", "polar_linear", "radial_kc", "radial_dk", "spiral"]),
        "xi": st.floats(min_value=0.0, max_value=200.0).map(repr),
    },
}
# alternatives of which a config must give at most (beam width: exactly) one
_ALTERNATIVES = {"l_par_um": "dq_par_um_inv", "l_perp_um": "dq_perp_um_inv", "lambda_c_um": "k_c_um_inv", "dlambda_um": "dk_ph_um_inv"}


@st.composite
def config_texts(draw):
    """INI text over the documented keys: plausible values mostly, one in
    twenty wild (nan, inf, negative, huge, tiny or not a number); optional
    sections and keys may be missing, alternatives may clash."""
    lines = []
    for section, keys in _DOCUMENTED_KEYS.items():
        if section not in ("beam", "spectrum") and not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        for key, plausible in keys.items():
            if key in _ALTERNATIVES.values():
                continue  # drawn with its alternative
            if key in _ALTERNATIVES:
                other = _ALTERNATIVES[key]
                chosen = draw(st.sampled_from([[key], [other]] * 4 + [[key, other], []]))
            else:
                chosen = [key] if draw(st.integers(0, 9)) else []
            for name in chosen:
                value = _WILD if draw(st.integers(0, 19)) == 0 else (keys[name] if name in keys else plausible)
                lines.append(f"{name} = {draw(value)}")
    return "\n".join(lines) + "\n"


# a [sweep] whose widest dq_perp reaches q0 must be refused while the
# config loads, also beside an admissible [beam] dq_perp; the strategy
# seldom draws one, so these examples always run
_SWEEP_AT = """[beam]
kinetic_energy_kev = 200.0
dq_par_um_inv = 4.8
{dq_perp}[spectrum]
k_c_um_inv = 12.5
dk_ph_um_inv = 1.0
[sweep]
dq_perp_min = 1.0
dq_perp_max = {dq_max!r}
dq_perp_steps = 2
dk_ph_min = 0.5
dk_ph_max = 2.0
dk_ph_steps = 2
"""
_Q0_200_KEV = derive_kinematics(200.0)[0]


class TestConfigProperty:
    @given(text=config_texts())
    @example(text=_SWEEP_AT.format(dq_perp="", dq_max=_Q0_200_KEV))
    @example(text=_SWEEP_AT.format(dq_perp="dq_perp_um_inv = 1.0\n", dq_max=_Q0_200_KEV))
    @example(text=_SWEEP_AT.format(dq_perp="dq_perp_um_inv = 1.0\n", dq_max=1e7))
    # a plane corner outside the box in w, behind an admissible [spectrum] dk_ph
    @example(text=_SWEEP_AT.format(dq_perp="", dq_max=2.0).replace("dk_ph_min = 0.5", "dk_ph_min = 1e-200"))
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_parses_to_admissible_config_or_config_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "property.ini"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small-recoil warnings on extreme widths
            try:
                cfg = load_config(str(path))
            except ConfigError:
                return
            replace(cfg.phase)  # PhaseModel checks itself again
            if cfg.dq_perp is not None:
                check_admissible(cfg.beam(), cfg.spectrum())
            if cfg.sweep is not None:
                # every plane corner's beam and spectrum are admissible and
                # inside the box, so every cell's are
                for dq in (cfg.sweep.dq_perp_min, cfg.sweep.dq_perp_max):
                    for dk in (cfg.sweep.dk_ph_min, cfg.sweep.dk_ph_max):
                        check_admissible(cfg.beam(dq), cfg.spectrum(dk))
            parser = configparser.ConfigParser()
            parser.read_string(dump_config(cfg))
            assert parse_config(parser) == cfg


class TestUnknownKeys:
    """A section or key that the parser does not read is a config error
    (exit 2) naming it, not silently dropped."""

    @pytest.mark.parametrize(
        "section,line",
        [
            ("beam", "dq_prep_um_inv = 3.0"),
            ("spectrum", "dk_ph_um = 1.0"),
            ("sweep", "dk_ph_step = 2"),
            ("phase", "varient = zero"),
        ],
        ids=["beam", "spectrum", "sweep", "phase"],
    )
    def test_unknown_key_exits_2(self, runner, tmp_path, section, line):
        header = f"[{section}]\n"
        text = SWEEP_INI.replace(header, header + line + "\n") if header in SWEEP_INI else SWEEP_INI + "\n" + header + line + "\n"
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert f"[{section}] {line.split(' = ')[0]}: unknown key" in res.output

    def test_unknown_section_exits_2(self, runner, tmp_path):
        text = BASE_INI + "\n[quadratur]\nrel_tol = 1e-4\n"
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[quadratur]: unknown section" in res.output

    def test_thresholds_section_exits_2(self, runner, tmp_path):
        # the regime thresholds are the paper's constants, not settings
        text = BASE_INI + "\n[thresholds]\npurity = 0.5\n"
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[thresholds]: unknown section" in res.output

    def test_quadrature_section_exits_2(self, runner, tmp_path, monkeypatch):
        # the purity tolerances are the library's: where the purity
        # quadrature does not converge (planted at L_par 13 um, (3, 10)), a
        # [quadrature] that would loosen the check until it passes is
        # refused before any output is made
        unconverged_at(monkeypatch, 10.0)
        text = BASE_INI.replace("l_par_um = 1.3", "l_par_um = 13").replace("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 10.0")
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "strict")])
        assert res.exit_code == 1, res.output
        assert "measure failed: purity quadrature did not converge (estimates 4.667247e-03, 3.570217e-03)" in res.output
        loosened = text + "\n[quadrature]\nrel_tol = 0.5\nabs_tol = 0.5\n"
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, loosened), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[quadrature]: unknown section" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["measure", "sweep", "regime-map", "dist", "validate"])
    def test_every_command_refuses_quadrature(self, runner, tmp_path, command):
        # the parent's default block, which no command may read
        text = SWEEP_INI + "\n[quadrature]\nrel_tol = 0.0001\nabs_tol = 5e-05\nmc_samples = 200000\n"
        res = runner.invoke(main, [command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[quadrature]: unknown section" in res.output
        assert not (tmp_path / "o").exists()

    def test_output_section_exits_2(self, runner, tmp_path):
        # --out alone chooses the output directory
        text = BASE_INI + "\n[output]\nout_dir = .\n"
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[output]: unknown section" in res.output
        assert not (tmp_path / "o").exists()

    def test_default_section_exits_2(self, runner, tmp_path):
        # configparser copies [DEFAULT] keys into every section
        text = "[DEFAULT]\nrel_tol = 1e-4\n\n" + BASE_INI
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[DEFAULT]" in res.output and "rel_tol" in res.output


def readme_config_keys() -> dict:
    """{section: keys} of README's config block, with the exclusive
    alternatives that the text above the block names (`a` xor `b`)."""
    prose, block = README.read_text().split("### Config format", 1)[1].split("```ini", 1)
    keys, current = {}, None
    for line in block.split("```", 1)[0].splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            current = keys.setdefault(line.strip("[]"), set())
        elif "=" in line:
            current.add(line.split("=", 1)[0].strip())
    for pair in re.findall(r"`(\w+)` xor `(\w+)`", prose):
        (section,) = [s for s, names in keys.items() if names & set(pair)]
        keys[section] |= set(pair)
    return keys


def test_documented_keys_match_the_parser():
    # a key added to or removed from the parser fails here until README's
    # config block and the property suite's key table say so too
    parser_keys = {section: set(names) for section, names in _CONFIG_KEYS.items()}
    assert readme_config_keys() == parser_keys
    assert {section: set(names) for section, names in _DOCUMENTED_KEYS.items()} == parser_keys


def test_readme_config_block_loads_as_written(runner, tmp_path):
    # copied verbatim, README's block runs: configparser would keep an
    # inline "; comment" in the value before it, so each comment has its
    # own line
    block = README.read_text().split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    res = runner.invoke(main, ["measure", "--config", write(tmp_path, block), "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "o" / "measure.csv").exists()


def test_readme_lists_every_command():
    # README's CLI block shows each command once, and no other
    block = readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1] for line in block.splitlines() if line.startswith("clpair ")]
    assert sorted(commands) == sorted(main.commands)


def test_readme_library_example_runs(capsys):
    # README's example must keep up with evaluate_point's signature
    block = readme_section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    purity, d2, regime = capsys.readouterr().out.split()
    assert 0.0 < float(purity) <= 1.0 < float(d2)
    assert regime == "Regime.B"
