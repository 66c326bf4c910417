import configparser
import json
import math

import pytest
from click.testing import CliRunner

from clpair.cli import (
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
)
from clpair.errors import ConfigError, ConsistencyError, ConvergenceError, DomainError, ResolutionError
from clpair.model import PolarLinearPhase, RadialDkPhase, RadialKcPhase

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


class TestCsvRoundTrip:
    def test_exact(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_INI))
        rows = run_sweep(cfg, threads=1)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = csv_to_rows(text)
        assert rows_to_csv(back) == text

    def test_header_rejected(self):
        with pytest.raises(ConfigError):
            csv_to_rows("a,b\n1,2\n")


class TestSweepDeterminism:
    def test_serial_equals_parallel(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_INI))
        a = rows_to_csv(run_sweep(cfg, threads=1))
        b = rows_to_csv(run_sweep(cfg, threads=2))
        assert a == b

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
        assert prov["config_hash"] and prov["package_version"]
        assert "timestamp" not in prov

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
        cfg = write(tmp_path, SWEEP_INI)
        out = str(tmp_path / "o")
        res = runner.invoke(main, ["regime-map", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        svg = (tmp_path / "o" / "regime_map.svg").read_text()
        assert svg.startswith("<svg")

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
        import clpair.cli as cli

        real = cli.evaluate_point

        def flaky(beam, spectrum, *args):
            if beam.dq_perp == 1.0 and spectrum.dk_ph == 0.5:
                raise exc
            return real(beam, spectrum, *args)

        monkeypatch.setattr(cli, "evaluate_point", flaky)
        monkeypatch.delenv("CLPAIR_THREADS", raising=False)
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


class TestInputValidation:
    def test_non_integer_threads_env_exits_2(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CLPAIR_THREADS", "abc")
        res = runner.invoke(main, ["sweep", "--config", write(tmp_path, SWEEP_INI), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "CLPAIR_THREADS" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("variant", ["polar_linear", "radial_kc", "radial_dk"])
    def test_negative_xi_exits_2(self, runner, tmp_path, variant):
        cfg = write(tmp_path, BASE_INI + f"\n[phase]\nvariant = {variant}\nxi = -5\n")
        res = runner.invoke(main, ["measure", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "xi" in res.output

    @pytest.mark.parametrize(
        "make",
        [lambda: PolarLinearPhase(eta1=lambda t: t, xi1=-1.0), lambda: RadialKcPhase(-5.0), lambda: RadialDkPhase(-0.1)],
        ids=["polar_linear", "radial_kc", "radial_dk"],
    )
    def test_negative_xi_rejected_by_phase(self, make):
        with pytest.raises(DomainError):
            make()
