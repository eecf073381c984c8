import json
import math

import pytest

from dircrawl.cli import RunConfig, main
from dircrawl.errors import ConfigError


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
            ("fig6", "--length", "-1"),
            ("fig6", "--length", "nan"),
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

    def test_figure_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "fig7", "--out", str(a)])
        main(["figure", "fig7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


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
