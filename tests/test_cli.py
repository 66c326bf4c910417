import configparser
import io
import json
import math
import platform
import re
import warnings
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clpair.cli import (
    _CONFIG_KEYS,
    CSV_HEADER,
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
    write_grid_csv,
)
from clpair.distributions import JointGrid
from clpair.errors import ConfigError, ConsistencyError, ConvergenceError, DomainError, ResolutionError
from clpair.model import PolarLinearPhase, RadialDkPhase, RadialKcPhase
from conftest import PLANE_CSV, src_env
from reference_grid_csv import write_grid_csv_per_value

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

    @pytest.mark.parametrize("name", ["out%1", "out%%1"])
    def test_percent_is_literal(self, runner, tmp_path, monkeypatch, name):
        monkeypatch.delenv("CLPAIR_OUT", raising=False)
        out = tmp_path / name
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, BASE_INI + f"\n[output]\nout_dir = {out}\n")])
        assert res.exit_code == 0, res.output
        assert f"out_dir = {out}\n" in json.loads((out / "measure.json").read_text())["config"]

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
    "phase": {"variant": ("radial_kc", "phase_variant", "radial_kc"), "xi": ("2.5", "phase_xi", 2.5)},
    "thresholds": {
        "purity": ("0.5", "thresholds.purity_threshold", 0.5),
        "epr": ("0.75", "thresholds.epr_threshold", 0.75),
    },
    "quadrature": {
        "rel_tol": ("0.0002", "quadrature.rel_tol", 2e-4),
        "abs_tol": ("3e-05", "quadrature.abs_tol", 3e-5),
        "mc_samples": ("12345", "mc_samples", 12345),
        "mc_seed": ("42", "mc_seed", 42),
    },
    "output": {"out_dir": ("runs/x", "out_dir", "runs/x")},
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


class TestSweepDeterminism:
    def test_threads_option_is_ignored(self, runner, tmp_path):
        cfg = write(tmp_path, SWEEP_INI)
        plain = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "a")])
        threaded = runner.invoke(main, ["sweep", "--threads", "2", "--config", cfg, "--out", str(tmp_path / "b")])
        assert plain.exit_code == 0 and threaded.exit_code == 0, (plain.output, threaded.output)
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "regime-map"])
    def test_non_integer_threads_exits_2(self, runner, tmp_path, command):
        res = runner.invoke(main, [command, "--threads", "abc", "--config", write(tmp_path, SWEEP_INI)])
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
        assert mapped.keys() == swept.keys()
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

    def test_env_out_override(self, runner, tmp_path, monkeypatch):
        cfg = write(tmp_path, BASE_INI)
        monkeypatch.setenv("CLPAIR_OUT", str(tmp_path / "envout"))
        res = runner.invoke(main, ["measure", "--config", cfg])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "envout" / "measure.csv").exists()

    def test_validate(self, runner, tmp_path):
        text = BASE_INI + "\n[quadrature]\nmc_samples = 20000\n"
        cfg = write(tmp_path, text)
        out = str(tmp_path / "o")
        res = runner.invoke(main, ["validate", "--config", cfg, "--out", out, "--seed", "11"])
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "o" / "validate.json").read_text())
        assert payload["seed"] == 11
        assert all(r["passed"] for r in payload["reports"])

    def test_dist(self, runner, tmp_path):
        cfg = write(tmp_path, BASE_INI)
        out = str(tmp_path / "o")
        res = runner.invoke(main, ["dist", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "o" / "dist_momentum.csv").exists()
        assert (tmp_path / "o" / "dist_position.csv").exists()
        meta = json.loads((tmp_path / "o" / "dist.json").read_text())
        assert abs(meta["momentum_integral"] - 1.0) < 0.01
        assert abs(meta["position_integral"] - 1.0) < 0.01


class TestSweepFailures:
    @pytest.mark.parametrize(
        "exc",
        [
            ConsistencyError("kernel symmetry violated"),
            ResolutionError("grid too coarse"),
            ConvergenceError("did not converge", best_estimate=0.25, previous_estimate=0.5),
        ],
        ids=["consistency", "resolution", "convergence"],
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

    def test_purity_z_once_per_column(self, tmp_path, monkeypatch):
        import clpair.cli as cli
        import clpair.measures as measures

        calls = []
        real = measures.purity_z

        def counting(beam, spectrum, *args):
            calls.append(spectrum.dk_ph)
            return real(beam, spectrum, *args)

        monkeypatch.setattr(measures, "purity_z", counting)
        cfg = load_config(write(tmp_path, SWEEP_INI))
        rows = run_sweep(cfg)
        assert calls == [0.5, 2.0]
        for r in rows:
            dq, dk = r["dq_perp_um_inv"], r["dk_ph_um_inv"]
            full = cli.result_to_row(measures.evaluate_point(cfg.beam(dq), cfg.spectrum(dk), cfg.phase(), cfg.thresholds, cfg.quadrature))
            assert r == {"dq_perp_um_inv": dq, "dk_ph_um_inv": dk, **full}

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
            raise ConsistencyError("purity_z failed")

        monkeypatch.setattr(measures, "purity_sc", flaky_sc)
        monkeypatch.setattr(measures, "purity_z", flaky_z)
        rows = run_sweep(load_config(write(tmp_path, SWEEP_INI)))
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

    @pytest.mark.parametrize(
        "make",
        [lambda: PolarLinearPhase(xi1=-1.0), lambda: RadialKcPhase(-5.0), lambda: RadialDkPhase(-0.1)],
        ids=["polar_linear", "radial_kc", "radial_dk"],
    )
    def test_negative_xi_rejected_by_phase(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("variant", ["", "variant = zero\n"], ids=["default", "zero"])
    def test_xi_under_zero_variant_exits_2(self, runner, tmp_path, variant):
        cfg = write(tmp_path, BASE_INI + f"\n[phase]\n{variant}xi = 100\n")
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[phase] xi = 100.0 needs a variant other than zero" in res.output

    def test_zero_variant_with_zero_xi_round_trips(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE_INI + "\n[phase]\nvariant = zero\nxi = 0.0\n"))
        assert "[phase]\nvariant = zero\nxi = 0.0\n" in dump_config(cfg)
        assert load_config(write(tmp_path, dump_config(cfg), "dumped.ini")) == cfg

    def test_polar_linear_phase_is_consistent(self, tmp_path):
        from clpair.measures import rel_pos_variance_closed, rel_pos_variance_quadrature

        ini = BASE_INI.replace("dk_ph_um_inv = 1.0", "dk_ph_um_inv = 0.3") + "\n[phase]\nvariant = polar_linear\nxi = 1.0\n"
        cfg = load_config(write(tmp_path, ini))
        beam, spectrum, phase = cfg.beam(), cfg.spectrum(), cfg.phase()
        # the closed form integrates the radial factor of D_eta, the
        # quadrature the gradient (a cos(theta) / k)^2 with a^2 = 14 xi1 / 3
        assert phase == PolarLinearPhase(1.0)
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
            "[quadrature]\ntruncation_sigmas = nan",
            "[quadrature]\ntruncation_sigmas = 4",
            "[quadrature]\nabs_tol = nan",
            "[quadrature]\nabs_tol = -1",
            "[quadrature]\nrel_tol = inf",
            "[thresholds]\nepr = nan",
            "[thresholds]\nepr = 0",
            "[thresholds]\npurity = nan",
            "[quadrature]\nmc_samples = 5000",
            "[quadrature]\nmc_seed = -1",
            "[phase]\nvariant = radial_kc\nxi = inf",
            "[phase]\nxi = nan",
        ],
    )
    def test_tolerances_thresholds_and_mc(self, runner, tmp_path, section):
        cfg = write(tmp_path, BASE_INI + "\n" + section + "\n")
        for argv in (["measure"], ["validate"]):
            assert_config_error(runner.invoke(main, [*argv, "--config", cfg, "--out", str(tmp_path / "o")]))

    def test_negative_seed_option(self, runner, tmp_path):
        cfg = write(tmp_path, BASE_INI)
        res = runner.invoke(main, ["validate", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "seed" in res.output

    def test_sample_floor_is_shared(self):
        from clpair.constants import MC_MIN_SAMPLES
        from clpair.oracles import mc_purity

        parser = configparser.ConfigParser()
        parser.read_string(BASE_INI + f"\n[quadrature]\nmc_samples = {MC_MIN_SAMPLES}\n")
        cfg = parse_config(parser)
        assert cfg.mc_samples == MC_MIN_SAMPLES
        with pytest.raises(DomainError):
            mc_purity(cfg.beam(), cfg.spectrum(), n=MC_MIN_SAMPLES - 1)
        with pytest.raises(ConfigError):
            replace(cfg, mc_samples=MC_MIN_SAMPLES - 1)


class TestGridCsv:
    def test_bytes_match_per_value_float_repr(self):
        # the per-value writer's bytes, on values at repr's edges: the
        # least subnormal, huge and tiny exponents, both notations
        a1 = np.array([-1.5, -1e-300, 0.1, 3.0])
        a2 = np.array([-2.0, 0.0, 1.0 / 3.0])
        dens = np.array([[0.0, 5e-324, 1e-17], [0.1, 2.0, 1e300], [np.pi, 1.0 / 7.0, 123456789.0], [0.3, 1e-5, 7.0]])
        grid = JointGrid(a1, a2, dens, axis1_name="x_el_um", axis2_name="x_ph_um")
        expected, buf = io.StringIO(), io.StringIO()
        write_grid_csv_per_value(grid, expected)
        write_grid_csv(grid, buf)
        assert buf.getvalue() == expected.getvalue()


class TestRuntimeImports:
    # the modules that only some commands need, imported when they run
    LAZY = ("clpair.render", "clpair.distributions", "clpair.oracles", "clpair._floatrepr")

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

    def test_dist_loads_the_grid_writer(self, tmp_path):
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
        assert res.stdout.splitlines()[-1] == str(sorted(["clpair._floatrepr", "clpair.distributions"]))

    def test_no_numpy_before_numerical_work(self, tmp_path):
        # `render`, `--help`, and a config error in any command, whether in
        # the file or found once it is read, exit before anything computes:
        # none of them loads numpy, and neither does importing the package
        import subprocess
        import sys

        (tmp_path / "sweep.csv").write_text(PLANE_CSV)
        good = write(tmp_path, BASE_INI, "good.ini")
        bad = write(tmp_path, SWEEP_INI.replace("l_par_um = 1.3", "l_par_um = 1.3\ndq_par_um_inv = 4.8"), "bad.ini")
        no_dq_perp = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0\n", ""), "no_dq_perp.ini")
        out = ["--out", str(tmp_path)]
        # (argv, exit status)
        calls = [
            (["--help"], 0),
            (["render", "--config", good, "--field", "d2", *out], 0),
            (["render", "--config", good, "--field", "regime", *out], 0),
            *(([cmd, "--config", bad, *out], 2) for cmd in ("measure", "sweep", "dist", "regime-map", "validate")),
            (["render", "--config", bad, "--field", "d2", *out], 2),
            *(([cmd, "--config", no_dq_perp, *out], 2) for cmd in ("measure", "dist", "validate")),
            *(([cmd, "--config", good, *out], 2) for cmd in ("sweep", "regime-map")),
            (["render", "--config", good, "--field", "nonesuch", *out], 2),
        ]
        code = (
            "import sys\n"
            "import clpair\n"
            "from clpair.cli import main\n"
            "print('@import', 0, 'numpy' in sys.modules)\n"
            f"for argv in {[argv for argv, _ in calls]!r}:\n"
            "    try:\n"
            "        status = main(argv, standalone_mode=False) or 0\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "    print('@' + argv[0], status, 'numpy' in sys.modules)\n"
            "import clpair.measures\n"
            "print('@measures', 0, 'numpy' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
        assert res.returncode == 0, res.stderr
        # the last line shows that the check sees numpy once it is loaded
        expected = [
            "@import 0 False",
            *(f"@{argv[0]} {status} False" for argv, status in calls),
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
            "SingularPointError",
        ),
        "model": (
            "BeamParams",
            "PhaseModel",
            "PolarLinearPhase",
            "QuadratureSpec",
            "RadialDkPhase",
            "RadialKcPhase",
            "RegimeThresholds",
            "SpectrumModel",
            "ZeroPhase",
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
            "rel_pos_variance_quadrature",
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


class TestProvenancePinned:
    @pytest.mark.parametrize(
        "text,digest",
        [
            (BASE_INI, "1edd93abfa0e4dcb16129c43f5b0a80678ef28c0b92f373be55b05987f30f89a"),
            (SWEEP_INI, "eca4bbcfe1c59fae816b013466a112d689e8aaa5fd3628acca8d7c43059002e5"),
        ],
        ids=["base", "sweep"],
    )
    def test_config_hash(self, tmp_path, text, digest):
        assert config_hash(load_config(write(tmp_path, text))) == digest


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

    @pytest.mark.parametrize("argv", [["measure"], ["dist"], ["validate"]], ids=lambda argv: argv[0])
    def test_point_commands_need_dq_perp(self, runner, tmp_path, argv):
        cfg = write(tmp_path, BASE_INI.replace("dq_perp_um_inv = 3.0\n", ""))
        res = runner.invoke(main, [*argv, "--config", cfg, "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "l_perp_um" in res.output

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
        ],
        ids=["repeated_cell", "negative", "zero", "infinite"],
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
        [("joint_position", []), ("momentum_grid", ["dist_position.csv"])],
        ids=["position", "momentum"],
    )
    def test_dist_domain_failure_exits_1(self, runner, tmp_path, monkeypatch, failing, left):
        # dist builds and writes the position grid first, then the
        # momentum grid: a failure leaves the CSVs written before it
        import clpair.distributions as distributions

        def fail(*args):
            raise DomainError("grid out of range")

        monkeypatch.setattr(distributions, failing, fail)
        res = runner.invoke(main, ["dist", "--config", write(tmp_path, BASE_INI), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "dist failed: grid out of range" in res.output
        assert sorted(p.name for p in (tmp_path / "o").glob("*")) == left

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
    "thresholds": {
        "purity": st.floats(min_value=0.01, max_value=1.2).map(repr),
        "epr": st.floats(min_value=0.0, max_value=3.0).map(repr),
    },
    "quadrature": {
        "rel_tol": st.floats(min_value=0.0, max_value=1e-2).map(repr),
        "abs_tol": st.floats(min_value=0.0, max_value=1e-3).map(repr),
        "mc_samples": st.integers(min_value=5_000, max_value=10**6).map(str),
        "mc_seed": st.integers(min_value=-5, max_value=2**32).map(str),
    },
    "output": {"out_dir": st.sampled_from(["out", "runs/a", "."])},
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


class TestConfigProperty:
    @given(text=config_texts())
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
            cfg.spectrum()
            cfg.phase()
            if cfg.dq_perp is not None:
                cfg.beam()
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
            ("thresholds", "eprr = 1.0"),
            ("quadrature", "rel_tl = 1e-4"),
            ("quadrature", "truncation_sigmas = 8.0"),
            ("output", "outdir = o"),
        ],
        ids=["beam", "spectrum", "sweep", "phase", "thresholds", "quadrature", "truncation_sigmas", "output"],
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

    def test_default_section_exits_2(self, runner, tmp_path):
        # configparser copies [DEFAULT] keys into every section
        text = "[DEFAULT]\nrel_tol = 1e-4\n\n" + BASE_INI
        res = runner.invoke(main, ["measure", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert_config_error(res)
        assert "[DEFAULT]" in res.output and "rel_tol" in res.output


README = Path(__file__).resolve().parents[1] / "README.md"


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


def readme_section(heading: str) -> str:
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_every_command():
    # README's CLI block shows each command once, and no other
    block = readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1] for line in block.splitlines() if line.startswith("clpair ")]
    assert sorted(commands) == sorted(main.commands)


def test_readme_lists_every_script():
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    assert set(re.findall(r"`(\w+\.py)`", readme_section("Scripts"))) == {p.name for p in scripts.glob("*.py")}
