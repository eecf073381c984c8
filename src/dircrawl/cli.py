"""Command-line front end.

Subcommands mirror the library layout: ``simulate`` integrates a gait and
emits the trajectory, ``analytic`` evaluates the closed forms, ``verify``
compares the two and sets the exit code, ``sweep`` runs a parameter grid,
and ``figure`` tabulates the standard displacement curve families.

Configuration is a single JSON document with a versioned ``schema`` field;
unknown keys are rejected and every validation error names the offending
field.  Numbers are emitted with ``output.precision`` significant digits
(default 17, full round-trip precision) so outputs are byte-stable and
diffable.

Exit codes: 0 success, 1 runtime/solver failure (or failed verification),
2 configuration error, including a step too small to integrate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable, Sequence

from . import engine
from .body import (
    Breather,
    CompositeStride,
    ConstantLength,
    GaitProgram,
    SquareWave,
    TwoSegmentPath,
)
from .errors import ConfigError, StepLimitError
from .friction import FrictionLaw

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "main"]


def _fmt(x: float, precision: int = 17) -> str:
    return format(float(x), f".{precision}g")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_GAIT_CLASSES = {
    "breather": Breather,
    "constant_length": ConstantLength,
    "two_segment": TwoSegmentPath,
    "composite_stride": CompositeStride,
    "square_wave": SquareWave,
}

_LAW_KEYS = ("tau_minus", "tau_plus", "mu_minus", "mu_plus")


def _require_number(block: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{block}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise ConfigError(f"{block}.{key}: {digits}-digit integer overflows a float") from None


def _require_finite_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name}: must be finite and positive, got {value!r}")
    return value


def _reject_unknown(block: str, data: dict, allowed: Sequence[str]) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{block}.{key}: unknown key")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: substrate law, gait, numerics, output."""

    law: FrictionLaw
    gait: GaitProgram
    gait_kind: str
    dt: float | None
    n_periods: int
    tolerance: float
    out_format: str
    out_path: str | None
    precision: int
    requested_regime: str | None
    sweep_axes: tuple[tuple[str, tuple[float, ...]], ...] | None

    @classmethod
    def from_dict(cls, data: Any) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("top level: expected a JSON object")
        _reject_unknown("config", data, ("schema", "substrate", "gait", "numeric", "output", "sweep"))
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {schema!r}")

        sub = data.get("substrate")
        if not isinstance(sub, dict):
            raise ConfigError("substrate: required object with tau/mu parameters")
        _reject_unknown("substrate", sub, _LAW_KEYS)
        params = {k: _require_number("substrate", k, sub.get(k, 0.0)) for k in _LAW_KEYS}
        try:
            law = FrictionLaw(**params)
        except ValueError as exc:
            raise ConfigError(f"substrate: {exc}") from exc

        gait_block = data.get("gait")
        if not isinstance(gait_block, dict):
            raise ConfigError("gait: required object with a 'kind' tag")
        kind = gait_block.get("kind")
        if kind not in _GAIT_CLASSES:
            raise ConfigError(
                f"gait.kind: expected one of {sorted(_GAIT_CLASSES)}, got {kind!r}"
            )
        field_map = engine._GAIT_KEYS[_GAIT_CLASSES[kind]]
        allowed = ["kind", *field_map.keys()]
        if kind == "square_wave":
            allowed.append("regime")
        _reject_unknown("gait", gait_block, allowed)
        kwargs: dict[str, Any] = {}
        for key, field_name in field_map.items():
            if key not in gait_block:
                raise ConfigError(f"gait.{key}: required for kind {kind!r}")
            value = gait_block[key]
            if key in ("times", "l1", "l2"):
                if not isinstance(value, list) or not value:
                    raise ConfigError(f"gait.{key}: expected a non-empty array")
                kwargs[field_name] = tuple(
                    _require_number("gait", key, v) for v in value
                )
            else:
                kwargs[field_name] = _require_number("gait", key, value)
        requested_regime = None
        if kind == "square_wave" and "regime" in gait_block:
            requested_regime = gait_block["regime"]
            if requested_regime not in ("stick_slip", "sliding"):
                raise ConfigError(
                    f"gait.regime: expected 'stick_slip' or 'sliding', got {requested_regime!r}"
                )
        try:
            gait = _GAIT_CLASSES[kind](**kwargs)
        except ValueError as exc:
            raise ConfigError(f"gait: {exc}") from exc

        numeric = data.get("numeric", {})
        if not isinstance(numeric, dict):
            raise ConfigError("numeric: expected an object")
        _reject_unknown("numeric", numeric, ("dt", "n_periods", "tolerance"))
        dt = numeric.get("dt")
        if dt is not None:
            dt = _require_finite_positive("numeric.dt", _require_number("numeric", "dt", dt))
        n_periods = numeric.get("n_periods", 1)
        if isinstance(n_periods, bool) or not isinstance(n_periods, int) or n_periods < 1:
            raise ConfigError(f"numeric.n_periods: expected a positive integer, got {n_periods!r}")
        tolerance = _require_finite_positive(
            "numeric.tolerance",
            _require_number("numeric", "tolerance", numeric.get("tolerance", 1e-6)),
        )

        output = data.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("output: expected an object")
        _reject_unknown("output", output, ("format", "path", "precision"))
        out_format = output.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ConfigError(f"output.format: expected 'csv' or 'json', got {out_format!r}")
        out_path = output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("output.path: expected a string")
        precision = output.get("precision", 17)
        if isinstance(precision, bool) or not isinstance(precision, int) or not 1 <= precision <= 17:
            raise ConfigError(f"output.precision: expected an integer in [1, 17], got {precision!r}")

        sweep_axes = None
        if "sweep" in data:
            sweep_block = data["sweep"]
            if not isinstance(sweep_block, dict):
                raise ConfigError("sweep: expected an object")
            _reject_unknown("sweep", sweep_block, ("axes",))
            axes_raw = sweep_block.get("axes")
            if not isinstance(axes_raw, list) or not axes_raw:
                raise ConfigError("sweep.axes: expected a non-empty array")
            axes = []
            for i, axis in enumerate(axes_raw):
                if not isinstance(axis, dict):
                    raise ConfigError(f"sweep.axes[{i}]: expected an object")
                _reject_unknown(f"sweep.axes[{i}]", axis, ("path", "values"))
                path = axis.get("path")
                values = axis.get("values")
                try:
                    engine._axis_field(gait, path)
                except ValueError as exc:
                    raise ConfigError(f"sweep.axes[{i}].path: {exc}") from exc
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"sweep.axes[{i}].values: expected a non-empty array")
                axes.append(
                    (path, tuple(_require_number(f"sweep.axes[{i}]", "values", v) for v in values))
                )
            sweep_axes = tuple(axes)

        return cls(
            law=law,
            gait=gait,
            gait_kind=kind,
            dt=dt,
            n_periods=n_periods,
            tolerance=tolerance,
            out_format=out_format,
            out_path=out_path,
            precision=precision,
            requested_regime=requested_regime,
            sweep_axes=sweep_axes,
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical echo of the configuration; parsing it reproduces an
        identical RunConfig."""
        gait_block: dict[str, Any] = {"kind": self.gait_kind}
        for key, field_name in engine._GAIT_KEYS[type(self.gait)].items():
            value = getattr(self.gait, field_name)
            gait_block[key] = list(value) if isinstance(value, tuple) else value
        if self.requested_regime is not None:
            gait_block["regime"] = self.requested_regime
        out: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "substrate": {k: getattr(self.law, k) for k in _LAW_KEYS},
            "gait": gait_block,
            "numeric": {
                "dt": self.dt,
                "n_periods": self.n_periods,
                "tolerance": self.tolerance,
            },
            "output": {
                "format": self.out_format,
                "path": self.out_path,
                "precision": self.precision,
            },
        }
        if self.sweep_axes is not None:
            out["sweep"] = {
                "axes": [{"path": p, "values": list(v)} for p, v in self.sweep_axes]
            }
        return out


def _load_config(path: str) -> RunConfig:
    def reject_constant(name: str) -> float:
        raise ValueError(f"{name}: config numbers must be finite")

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # NaN or Infinity, an integer longer than int() reads, not UTF-8
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


@contextmanager
def _open_out(path: str | None):
    """The output file, or stdout for None or ``-`` (left open)."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_csv(
    path: str | None,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    precision: int = 17,
) -> None:
    _write_rows(
        path, header, ([_fmt(v, precision) if isinstance(v, float) else v for v in row] for row in rows)
    )


def _write_rows(path: str | None, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """``header`` and ``rows`` as CSV, each value as ``str`` gives it."""
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str | None, obj: Any) -> None:
    with _open_out(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: RunConfig, out: str | None) -> int:
    traj = engine.simulate(cfg.law, cfg.gait, n_periods=cfg.n_periods, dt=cfg.dt)
    if cfg.out_format == "csv":
        spec = f".{cfg.precision}g"  # as _fmt formats
        columns = [
            [format(v, spec) for v in a.tolist()] for a in (traj.times, traj.x1, traj.x2, traj.l)
        ]
        # the last sample repeats the last step's regime
        regimes = [*traj.regimes, traj.regimes[-1]]
        _write_rows(out, ("t", "x1", "x2", "l", "regime"), zip(*columns, regimes))
    else:
        obj = {
            "schema": SCHEMA_VERSION,
            "command": "simulate",
            "net_displacement": traj.net_displacement,
            "samples": {
                "t": [float(v) for v in traj.times],
                "x1": [float(v) for v in traj.x1],
                "x2": [float(v) for v in traj.x2],
                "l": [float(v) for v in traj.l],
                "regime": list(traj.regimes),
            },
        }
        _write_json(out, obj)
    return 0


def _cmd_analytic(cfg: RunConfig, out: str | None) -> int:
    report = engine.cycle_displacement(cfg.law, cfg.gait, dt=cfg.dt)
    adm = report.admissibility
    feasible = None
    if cfg.requested_regime is not None and adm is not None:
        feasible = adm.regime == cfg.requested_regime
    obj = {
        "schema": SCHEMA_VERSION,
        "command": "analytic",
        "gait_kind": report.gait_kind,
        "analytic_value": report.analytic_value,
        "net_displacement_numeric": report.net_displacement,
        "contributions": {k: v for k, v in report.contributions},
        "abs_residual": report.abs_residual,
        "rel_residual": report.rel_residual,
        "admissibility": None if adm is None else asdict(adm),
        "requested_regime": cfg.requested_regime,
        "requested_regime_feasible": feasible,
        "note": report.meta.get("note"),
    }
    _write_json(out, obj)
    return 0


def _cmd_verify(cfg: RunConfig, out: str | None) -> int:
    report = engine.verify(cfg.law, cfg.gait, dt=cfg.dt, tol=cfg.tolerance)
    obj = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "passed": report.passed,
        "checks": [asdict(c) for c in report.checks],
    }
    _write_json(out, obj)
    return 0 if report.passed else 1


def _cmd_sweep(cfg: RunConfig, out: str | None) -> int:
    if cfg.sweep_axes is None:
        raise ConfigError("sweep: config must contain a 'sweep' block with axes")
    rows = engine.sweep(cfg.law, cfg.gait, cfg.sweep_axes, dt=cfg.dt)
    header = (
        "index",
        *(path for path, _ in cfg.sweep_axes),
        "net_displacement",
        "analytic_value",
        "abs_residual",
        "regime_or_admissibility",
        "error",
    )
    out_rows = []
    for row in rows:
        values = [v for _, v in row.params]
        if row.report is not None:
            rep = row.report
            if rep.admissibility is not None:
                regime = rep.admissibility.regime
            else:
                counts = rep.meta["regime_counts"]
                regime = max(counts, key=counts.get)
            out_rows.append(
                (
                    row.index,
                    *values,
                    rep.net_displacement,
                    "" if rep.analytic_value is None else _fmt(rep.analytic_value, cfg.precision),
                    "" if rep.abs_residual is None else _fmt(rep.abs_residual, cfg.precision),
                    regime,
                    "",
                )
            )
        else:
            out_rows.append((row.index, *values, "", "", "", "", row.error))
    _write_csv(out, header, out_rows, cfg.precision)
    return 0


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}") from exc


def _cmd_figure(args: argparse.Namespace) -> int:
    epsilons = _parse_float_list(args.epsilons, "--epsilons") if args.epsilons else None
    alphas = _parse_float_list(args.alphas, "--alphas") if args.alphas else None
    betas_squared = (
        _parse_float_list(args.betas_squared, "--betas-squared") if args.betas_squared else None
    )
    for flag, values, ok, domain in (
        ("--epsilons", epsilons or (), lambda v: v > -1.0, "> -1"),
        ("--alphas", alphas or (), lambda v: 0.0 < v < 1.0, "in (0, 1)"),
        ("--betas-squared", betas_squared or (), lambda v: v > 0.0, "> 0"),
        ("--delta-over-l", (args.delta_over_l,), lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ):
        for v in values:
            if not (math.isfinite(v) and ok(v)):
                raise ConfigError(f"{flag}: each value must be finite and {domain}, got {v!r}")
    if args.name == "fig6":
        rows = engine.figure6_data(alphas=alphas, epsilons=epsilons)
        _write_csv(args.out, engine.FIG6_COLUMNS, rows)
    else:
        betas = None if betas_squared is None else tuple(b2**0.5 for b2 in betas_squared)
        try:
            rows = engine.figure7_data(betas, epsilons, args.delta_over_l)
        except ValueError as exc:  # flags in range can still overflow the sliding formula
            raise ConfigError(str(exc)) from exc
        _write_csv(args.out, engine.FIG7_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# The subcommands that run a JSON configuration; ``figure`` is the only other.
_CONFIG_COMMANDS = {
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dircrawl",
        description="Quasi-static crawling on directional frictional substrates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--dt", type=float, default=None, help="override numeric.dt")
        p.add_argument("--periods", type=int, default=None, help="override numeric.n_periods")
        p.add_argument("--tol", type=float, default=None, help="override numeric.tolerance")
        p.add_argument(
            "--echo-config",
            action="store_true",
            help="print the normalized configuration to stdout before running",
        )

    for name in _CONFIG_COMMANDS:
        add_common(sub.add_parser(name))
    sub.choices["simulate"].add_argument("--format", choices=("csv", "json"), default=None)

    fig = sub.add_parser("figure")
    fig.add_argument("name", choices=("fig6", "fig7"))
    fig.add_argument("--out", default=None)
    fig.add_argument("--epsilons", default=None, help="comma-separated amplitudes")
    fig.add_argument("--alphas", default=None, help="fig6: comma-separated alpha values")
    fig.add_argument("--betas-squared", default=None, help="fig7: comma-separated beta^2 values")
    fig.add_argument("--delta-over-l", type=float, default=0.25, help="fig7 wave width / length")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict[str, Any] = {}
    if args.dt is not None:
        updates["dt"] = _require_finite_positive("--dt", args.dt)
    if args.periods is not None:
        if args.periods < 1:
            raise ConfigError("--periods: must be >= 1")
        updates["n_periods"] = args.periods
    if args.tol is not None:
        updates["tolerance"] = _require_finite_positive("--tol", args.tol)
    if getattr(args, "format", None) is not None:
        updates["out_format"] = args.format
    return replace(cfg, **updates) if updates else cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "figure":
            return _cmd_figure(args)
        cfg = _apply_overrides(_load_config(args.config), args)
        if args.echo_config:
            json.dump(cfg.to_dict(), sys.stdout, indent=2)
            sys.stdout.write("\n")
        out = args.out if args.out is not None else cfg.out_path
        return _CONFIG_COMMANDS[args.command](cfg, out)
    except (ConfigError, StepLimitError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does: not an error.
        # Point stdout at devnull so the interpreter's final flush does not
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception as exc:  # solver/runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
