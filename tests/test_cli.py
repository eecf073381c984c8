import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dircrawl.cli import RunConfig, main
from dircrawl.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def breather_config(**overrides):
    cfg = {
        "schema": 1,
        "substrate": {"tau_minus": 0.75, "tau_plus": 0.25, "mu_minus": 0.0, "mu_plus": 0.0},
        "gait": {"kind": "breather", "L": 1.0, "delta": 1.0, "T": 1.0},
        "numeric": {"dt": 0.0005, "n_periods": 1, "tolerance": 1e-6},
        "output": {"format": "csv", "path": None, "precision": 17},
    }
    cfg.update(overrides)
    return cfg


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig.from_dict(breather_config())
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_round_trip_wave_with_regime(self):
        data = breather_config(
            gait={
                "kind": "square_wave",
                "L": 1.0,
                "delta": 0.2,
                "epsilon": 0.5,
                "c": 1.0,
                "regime": "stick_slip",
            }
        )
        cfg = RunConfig.from_dict(data)
        assert cfg.requested_regime == "stick_slip"
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_sweep(self):
        data = breather_config(
            sweep={"axes": [{"path": "gait.delta", "values": [0.1, 0.5]}]}
        )
        cfg = RunConfig.from_dict(data)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="extra"):
            RunConfig.from_dict(breather_config(extra=1))

    def test_unknown_gait_key(self):
        data = breather_config()
        data["gait"]["surprise"] = 3
        with pytest.raises(ConfigError, match="gait.surprise"):
            RunConfig.from_dict(data)

    def test_field_named_in_error(self):
        data = breather_config()
        data["substrate"]["tau_minus"] = -2.0
        with pytest.raises(ConfigError, match="tau_minus"):
            RunConfig.from_dict(data)

    def test_schema_required(self):
        data = breather_config()
        data["schema"] = 99
        with pytest.raises(ConfigError, match="schema"):
            RunConfig.from_dict(data)

    def test_gait_kind_validated(self):
        data = breather_config(gait={"kind": "sidewinder"})
        with pytest.raises(ConfigError, match="gait.kind"):
            RunConfig.from_dict(data)


_WAVE = {"kind": "square_wave", "L": 1.0, "delta": 0.1, "epsilon": 0.5, "c": 1.0}
_PATH = {
    "kind": "two_segment",
    "L": 1.0,
    "x_star": 0.5,
    "times": [0.0, 0.5, 1.0],
    "l1": [0.4, 0.6, 0.4],
    "l2": [0.5, 0.55, 0.5],
}


def _analytic(**overrides):
    return ["analytic"], breather_config(**overrides)


def _sweep(*axes):
    return ["sweep"], breather_config(sweep={"axes": list(axes)})


class TestConfigErrors:
    """Every configuration error exits 2 through ``main``, with nothing on
    stdout and one stderr line that starts by naming the field at fault."""

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (*_analytic(substrate={"tau_minus": "x"}), "substrate.tau_minus: expected a number"),
            (["analytic"], [breather_config()], "top level: expected a JSON object"),
            (*_analytic(substrate=None), "substrate: required object"),
            (*_analytic(gait=["breather"]), "gait: required object"),
            (*_analytic(gait={"kind": "breather", "L": 1.0, "delta": 1.0}), "gait.T: required"),
            (*_analytic(gait={**_PATH, "times": 0.5}), "gait.times: expected a non-empty array"),
            (*_analytic(gait={**_PATH, "l1": []}), "gait.l1: expected a non-empty array"),
            (*_analytic(gait={**_WAVE, "regime": "walk"}), "gait.regime: expected"),
            (*_analytic(numeric=[]), "numeric: expected an object"),
            (*_analytic(numeric={"n_periods": 0}), "numeric.n_periods: expected"),
            (*_analytic(numeric={"n_periods": 1.5}), "numeric.n_periods: expected"),
            (*_analytic(output="csv"), "output: expected an object"),
            (*_analytic(output={"format": "xml"}), "output.format: expected"),
            (*_analytic(output={"path": 7}), "output.path: expected a string"),
            (*_analytic(output={"precision": 18}), "output.precision: expected"),
            (["sweep"], breather_config(sweep=[]), "sweep: expected an object"),
            (*_sweep(), "sweep.axes: expected a non-empty array"),
            (*_sweep("gait.delta"), "sweep.axes[0]: expected an object"),
            (*_sweep({"path": "delta", "values": [0.5]}), "sweep.axes[0].path: expected"),
            (*_sweep({"path": "gait.delta", "values": []}), "sweep.axes[0].values: expected"),
            (["analytic"], None, "cannot read config"),  # and names the path
            (["simulate", "--periods", "0"], breather_config(), "--periods: must be >= 1"),
            (["figure", "fig6", "--epsilons", "0.1,x"], None, "--epsilons: expected"),
            (*_sweep({"path": 5, "values": [0.5]}), "sweep.axes[0].path: expected"),
            # integers a float cannot hold, and one longer than int() reads
            (*_analytic(substrate={"tau_minus": 10**400}), "substrate.tau_minus: 401-digit"),
            (*_analytic(gait={"kind": "breather", "L": 1.0, "delta": -(10**400), "T": 1.0}),
             "gait.delta: 401-digit integer overflows a float"),
            pytest.param(
                ["analytic"],
                json.dumps(breather_config()).replace("0.75", "7" * 5001).encode(),
                "{path}: Exceeds the limit",
                id="integer-of-5001-digits",
            ),
            (["analytic"], b"\xff{}", "{path}: 'utf-8' codec can't decode"),  # not UTF-8
        ],
    )
    def test_exit_two_naming_the_field(self, tmp_path, capsys, argv, data, message):
        # ``data`` is a config, a file's bytes, or None for no file
        path = tmp_path / "cfg.json"
        if data is not None:
            path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        if argv[0] != "figure":
            argv = [argv[0], "--config", str(path), *argv[1:]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {message.format(path=path)}")
        assert err.count("\n") == 1
        if data is None and argv[0] != "figure":
            assert str(path) in err


class TestSimulateCommand:
    def test_csv_trajectory(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,l,regime"
        last = lines[-1].split(",")
        assert math.isclose(float(last[1]), 0.5, abs_tol=1e-6)
        # x2 - x1 == l on every row
        for line in lines[1:]:
            t, x1, x2, l, regime = line.split(",")
            assert math.isclose(float(x2) - float(x1), float(l), abs_tol=1e-12)
            assert regime == "sliding"

    def test_periods_override_scales_displacement(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out1, out3 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out3), "--periods", "3"]) == 0
        d1 = float(out1.read_text().splitlines()[-1].split(",")[1])
        d3 = float(out3.read_text().splitlines()[-1].split(",")[1])
        assert math.isclose(d3, 3.0 * d1, rel_tol=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out = tmp_path / "traj.json"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert math.isclose(data["net_displacement"], 0.5, abs_tol=1e-6)

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        data = breather_config()
        data["substrate"]["tau_minus"] = -1.0
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg]) == 2
        assert "tau_minus" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,,}')
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err

    def test_echo_config_round_trips(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, breather_config())
        out = tmp_path / "t.csv"
        assert (
            main(["simulate", "--config", cfg_path, "--out", str(out), "--echo-config"]) == 0
        )
        echoed = json.loads(capsys.readouterr().out)
        assert RunConfig.from_dict(echoed) == RunConfig.from_dict(breather_config())


class TestAnalyticCommand:
    def test_breather_report(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out = tmp_path / "rep.json"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert math.isclose(rep["analytic_value"], 0.5, rel_tol=1e-12)

    def test_symmetric_substrate_zero(self, tmp_path):
        data = breather_config(
            substrate={"tau_minus": 1.0, "tau_plus": 1.0, "mu_minus": 2.0, "mu_plus": 2.0}
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "rep.json"
        main(["analytic", "--config", cfg, "--out", str(out)])
        assert abs(json.loads(out.read_text())["analytic_value"]) < 1e-12

    def test_stride_report(self, tmp_path):
        data = breather_config(
            substrate={"tau_minus": 0.5, "tau_plus": 0.5, "mu_minus": 0.0, "mu_plus": 0.0},
            gait={"kind": "composite_stride", "lambda": 0.1, "delta": 1.0, "h": 2.0, "T": 1.0},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "rep.json"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert math.isclose(rep["analytic_value"], -0.5, rel_tol=1e-12)

    def test_stride_with_overflowing_squared_size(self, tmp_path):
        data = breather_config(
            gait={"kind": "composite_stride", "lambda": 1e154, "delta": 5e153, "h": 2.0, "T": 1.0},
            numeric={"n_periods": 1, "tolerance": 1e-6},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "rep.json"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["rel_residual"] <= 1e-12

    def test_newtonian_wave_requesting_stick_slip_infeasible(self, tmp_path):
        data = breather_config(
            substrate={"tau_minus": 0.0, "tau_plus": 0.0, "mu_minus": 1.0, "mu_plus": 1.0},
            gait={
                "kind": "square_wave",
                "L": 1.0,
                "delta": 0.25,
                "epsilon": 1.0,
                "c": 1.0,
                "regime": "stick_slip",
            },
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "rep.json"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["requested_regime_feasible"] is False
        assert rep["admissibility"]["stickslip_delta_max"] == 0.0
        assert rep["admissibility"]["regime"] == "sliding"


class TestVerifyCommand:
    def test_wave_whose_inside_stage_collapses(self, tmp_path, capsys):
        data = breather_config(
            substrate={"tau_minus": 0.0, "tau_plus": 0.0, "mu_minus": 1.0, "mu_plus": 2.0},
            gait={"kind": "square_wave", "L": 1.0, "delta": 0.9999999999999999,
                  "epsilon": 1.0, "c": 3.0},
            numeric={},
        )
        assert main(["verify", "--config", write_config(tmp_path, data)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        names = [c["name"] for c in json.loads(captured.out)["checks"]]
        assert names[1:4] == ["stage:wave_enter", "stage:wave_inside", "stage:wave_exit"]

    def test_pass_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_fail_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out), "--tol", "1e-12"]) == 1
        assert json.loads(out.read_text())["passed"] is False

    def test_step_limit_exit_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, breather_config(sweep={"axes": [{"path": "gait.delta", "values": [0.5]}]})
        )
        for command in ("simulate", "analytic", "verify", "sweep"):
            assert main([command, "--config", cfg, "--dt", "1e-300"]) == 2
            assert "dt=1e-300" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--dt", "nan"), ("--dt", "inf"), ("--tol", "nan"), ("--tol", "inf")]
    )
    def test_non_finite_step_or_tolerance_exit_two(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, breather_config())
        assert main(["verify", "--config", cfg, flag, value]) == 2
        assert f"{flag}: must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["dt", "tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numeric_config_rejected(self, key, value):
        data = breather_config()
        data["numeric"][key] = value
        with pytest.raises(ConfigError, match=f"numeric.{key}: must be finite"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_constant_exit_two(self, tmp_path, capsys, constant):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(breather_config()).replace('"delta": 1.0', f'"delta": {constant}'),
            encoding="utf-8",
        )
        assert main(["analytic", "--config", str(path)]) == 2
        assert f"{constant}: config numbers must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gait, key, field",
        [
            ({"kind": "breather", "L": 1.0, "delta": 1.0, "T": 1.0}, "T", "period"),
            (
                {"kind": "composite_stride", "lambda": 0.5, "delta": 0.5, "h": 2.0, "T": 1.0},
                "h",
                "h",
            ),
        ],
    )
    def test_overflowing_gait_number_exit_two(self, tmp_path, capsys, gait, key, field):
        # 1e999 parses to inf, which the gait constructor rejects
        text = json.dumps(breather_config(gait=gait))
        path = tmp_path / "cfg.json"
        path.write_text(text.replace(f'"{key}": {gait[key]}', f'"{key}": 1e999'), encoding="utf-8")
        assert main(["analytic", "--config", str(path)]) == 2
        assert f"gait: {field} must be finite, got inf" in capsys.readouterr().err

    def test_absorbed_path_segment_exit_two(self, tmp_path, capsys):
        # l2 vanishes against l1 = 1e20 in floating point
        gait = {"kind": "two_segment", "L": 1.0, "x_star": 0.5, "times": [0, 1, 2],
                "l1": [1e20, 1e20, 1e20], "l2": [1, 2, 1]}
        cfg = write_config(tmp_path, breather_config(gait=gait))
        assert main(["analytic", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error: gait: l2[0]=1.0 is absorbed by l1[0]=1e+20" in err

    def test_absorbed_wave_width_exit_two(self, tmp_path, capsys):
        # the wave's back node ct - delta rounds onto its front ct
        gait = {"kind": "square_wave", "L": 1.0, "delta": 2.5e-17, "epsilon": 1.0, "c": 1.0}
        cfg = write_config(tmp_path, breather_config(gait=gait))
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error: gait: delta=2.5e-17 is absorbed by ref_length=1.0" in err

    def test_subnormal_wave_stage_time_exit_two(self, tmp_path, capsys):
        # the entry time delta / c underflows to 0
        gait = {"kind": "square_wave", "L": 3.9e-142, "delta": 1.68e-142, "epsilon": -0.68,
                "c": 7.8e181}
        cfg = write_config(tmp_path, breather_config(gait=gait))
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error: gait: delta=1.68e-142 / speed=7.8e+181 is subnormal" in err

    def test_more_periods_than_steps_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, breather_config(numeric={"n_periods": 10**400}))
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: n_periods exceeds the limit of 1000000 steps")

    def test_bump_rate_overflow_exit_two(self, tmp_path, capsys):
        gait = {"kind": "breather", "L": 1.0, "delta": 1.0, "T": 5e-324}
        cfg = write_config(tmp_path, breather_config(gait=gait))
        assert main(["simulate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error: gait: period=5e-324 is too short for delta=1.0" in err

    @pytest.mark.parametrize("command", ["simulate", "analytic", "verify"])
    @pytest.mark.parametrize(
        "gait, message",
        [
            (
                {"kind": "two_segment", "L": 1.0, "x_star": 0.5, "times": [0, 5e-324, 1, 2],
                 "l1": [1, 2, 1.5, 1], "l2": [1, 1, 2, 1]},
                "l1 changes too fast from times[0] to times[1]: its rate inf is not finite",
            ),
            (
                {"kind": "two_segment", "L": 1.0, "x_star": 0.5, "times": [0, 1, 2],
                 "l1": [1e308, 1.7e308, 1e308], "l2": [1e308, 1.7e308, 1e308]},
                "l1[0] + l2[0] overflows: the body length 1e+308 + 1e+308 is not finite",
            ),
            (
                {"kind": "square_wave", "L": 1.0, "delta": 0.5, "epsilon": 1e308, "c": 10.0},
                "epsilon * speed overflows: inf is not finite",
            ),
        ],
        ids=["edge_rate", "body_length", "wave_rate"],
    )
    def test_kinematics_overflow_exit_two(self, tmp_path, capsys, command, gait, message):
        # these used to build and then fail in the solver: "force scale overflows", exit 1
        cfg = write_config(tmp_path, breather_config(gait=gait))
        assert main([command, "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: gait: {message}\n"

    def test_unsupported_pair_exit_one(self, tmp_path, capsys):
        data = breather_config(
            substrate={"tau_minus": 1.0, "tau_plus": 0.5, "mu_minus": 1.0, "mu_plus": 0.5},
            gait={"kind": "composite_stride", "lambda": 0.5, "delta": 0.5, "h": 2.0, "T": 1.0},
        )
        cfg = write_config(tmp_path, data)
        assert main(["verify", "--config", cfg]) == 1
        assert "closed-form" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        data = breather_config(
            substrate={"tau_minus": 1.0, "tau_plus": 1.0, "mu_minus": 0.0, "mu_plus": 0.0},
            gait={"kind": "square_wave", "L": 1.0, "delta": 0.1, "epsilon": 0.5, "c": 1.0},
            numeric={"dt": 0.01, "n_periods": 1, "tolerance": 1e-6},
            sweep={"axes": [{"path": "gait.epsilon", "values": [0.25, 0.5]}]},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("index,gait.epsilon,net_displacement")
        assert len(lines) == 3
        for line, eps in zip(lines[1:], (0.25, 0.5)):
            cells = line.split(",")
            assert math.isclose(float(cells[2]), -eps * 0.1, abs_tol=1e-6)

    def test_sweep_requires_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, breather_config())
        assert main(["sweep", "--config", cfg]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_failing_row_keeps_its_place_and_names_the_error(self, tmp_path, capsys):
        data = breather_config(
            substrate={"tau_minus": 1.0, "tau_plus": 1.0},
            gait=_WAVE,
            sweep={"axes": [{"path": "gait.delta", "values": [0.2, 1.5]}]},
        )
        assert main(["sweep", "--config", write_config(tmp_path, data)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0,0.20000000000000001,") and lines[1].endswith(",stick_slip,")
        assert lines[2] == "1,1.5,,,,,ValueError: delta must satisfy 0 < delta < ref_length"

    def test_row_whose_wave_rate_overflows_names_the_error(self, tmp_path, capsys):
        data = breather_config(
            gait={"kind": "square_wave", "L": 1.0, "delta": 0.5, "epsilon": 0.5, "c": 10.0},
            sweep={"axes": [{"path": "gait.epsilon", "values": [0.5, 1e308]}]},
        )
        assert main(["sweep", "--config", write_config(tmp_path, data)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[1].startswith("0,0.5,")
        assert lines[2] == "1,1e+308,,,,,ValueError: epsilon * speed overflows: inf is not finite"

    def test_unknown_axis_field_is_a_config_error(self, tmp_path, capsys):
        data = breather_config(
            gait=_WAVE, sweep={"axes": [{"path": "gait.bogus", "values": [1.0, 2.0]}]}
        )
        assert main(["sweep", "--config", write_config(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: sweep.axes[0].path: 'gait.bogus': SquareWave has no field 'bogus'\n"
        )

    def test_sweep_deterministic(self, tmp_path):
        data = breather_config(
            sweep={"axes": [{"path": "gait.delta", "values": [0.25, 0.5, 0.75]}]},
            numeric={"dt": 0.01, "n_periods": 1, "tolerance": 1e-6},
        )
        cfg = write_config(tmp_path, data)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", cfg, "--out", str(a)])
        main(["sweep", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFigureCommand:
    def test_fig6_default(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["figure", "fig6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,epsilon,dx1_over_L"
        alphas = {line.split(",")[0] for line in lines[1:]}
        assert len(alphas) == 3

    def test_fig7_default(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["figure", "fig7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,beta_squared,epsilon,dx1_over_L"
        curves = {line.split(",")[1] for line in lines[1:]}
        assert len(curves) == 5

    def test_custom_ranges_same_schema(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert (
            main(
                [
                    "figure",
                    "fig6",
                    "--out",
                    str(out),
                    "--alphas",
                    "0.5",
                    "--epsilons",
                    "0.5,-0.5",
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,epsilon,dx1_over_L"
        assert len(lines) == 3
        assert math.isclose(float(lines[1].split(",")[2]), -0.2, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "name, flag, value",
        [
            ("fig6", "--epsilons", "0.5,nan"),
            ("fig6", "--epsilons", "-1"),
            ("fig6", "--alphas", "1"),
            ("fig6", "--alphas", "inf"),
            ("fig7", "--delta-over-l", "nan"),
            ("fig7", "--delta-over-l", "1"),
            ("fig7", "--betas-squared", "0"),
            ("fig7", "--epsilons", "inf"),
        ],
    )
    def test_out_of_domain_flag_exit_two(self, capsys, name, flag, value):
        assert main(["figure", name, f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {flag}: each value must be finite" in captured.err

    @pytest.mark.parametrize("epsilon", ["1e200", "1e300"])
    def test_overflowing_amplitude_exit_two(self, capsys, epsilon):
        argv = ["figure", "fig7", "--epsilons", epsilon, "--betas-squared", "0.25"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: epsilon={float(epsilon)!r} is out of range" in captured.err

    def test_figure_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "fig7", "--out", str(a)])
        main(["figure", "fig7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_closed_stdout_is_not_an_error(self):
        # 99 alphas x 99 epsilons make ~420 kB of rows, more than a pipe
        # holds, so the child is still writing when the reader closes it
        alphas = ",".join(str(k / 100) for k in range(1, 100))
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "dircrawl", "figure", "fig6", "--alphas", alphas],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline() == b"alpha,epsilon,dx1_over_L\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""


class TestOtherGaitConfigs:
    def test_constant_length_gait(self, tmp_path):
        data = breather_config(
            gait={
                "kind": "constant_length",
                "L": 1.0,
                "x_star": 0.5,
                "l1_rest": 0.4,
                "delta": 0.3,
                "T": 1.0,
            }
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "rep.json"
        assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert math.isclose(rep["analytic_value"], 0.5 * 0.3, rel_tol=1e-12)

    def test_two_segment_gait(self, tmp_path):
        data = breather_config(
            gait={
                "kind": "two_segment",
                "L": 1.0,
                "x_star": 0.5,
                "times": [0.0, 0.5, 1.0],
                "l1": [0.4, 0.6, 0.4],
                "l2": [0.5, 0.55, 0.5],
            },
            numeric={"dt": 0.01, "n_periods": 1, "tolerance": 1e-6},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 10

    def test_sliding_wave_verify_via_cli(self, tmp_path):
        data = breather_config(
            substrate={"tau_minus": 0.0, "tau_plus": 0.0, "mu_minus": 1.0, "mu_plus": 1.0},
            gait={"kind": "square_wave", "L": 1.0, "delta": 0.25, "epsilon": 1.0, "c": 1.0},
        )
        cfg = write_config(tmp_path, data)
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        names = {c["name"] for c in rep["checks"]}
        assert "stage_identity_exit_minus_enter" in names


class TestFormatEquivalence:
    def test_csv_and_json_trajectories_agree(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(["simulate", "--config", cfg, "--out", str(out_csv)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_json), "--format", "json"]) == 0
        rows = out_csv.read_text().splitlines()[1:]
        data = json.loads(out_json.read_text())
        assert len(rows) == len(data["samples"]["t"])
        for row, t, x1 in zip(rows, data["samples"]["t"], data["samples"]["x1"]):
            cells = row.split(",")
            assert float(cells[0]) == t
            assert float(cells[1]) == x1


class TestPrecisionControl:
    def test_output_precision_honored(self, tmp_path):
        data = breather_config()
        data["output"]["precision"] = 6
        cfg = write_config(tmp_path, data)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        final = out.read_text().splitlines()[-1].split(",")[1]
        assert len(final.replace("-", "").replace(".", "").lstrip("0")) <= 7
        assert math.isclose(float(final), 0.5, abs_tol=1e-5)

    def test_analytic_json_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, breather_config())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["analytic", "--config", cfg, "--out", str(a)])
        main(["analytic", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
