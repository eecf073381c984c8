"""The three workloads: what one op is, how it is timed and how it is checked.

All three are closed loops with one caller: the next op starts only after
the previous one has returned.  Ops come in rotations (one op per input
class, or one per CLI command) so every run holds the same cost mix.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any

import numpy as np

import inputs
import kernel
from layertrace import Tracer

#: Periods per ``trajectory`` op.
TRAJECTORY_PERIODS = 2
#: Relative tolerance per period, as ``engine.verify`` uses by default.
TOL = 1e-6


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / max(1.0, abs(target))


@dataclass(frozen=True)
class CaseOp:
    case: inputs.Case
    closed_form: float | None


class _InProcess:
    """Shared timing for workloads that call the library directly."""

    name = ""
    rss_children = False
    process_kernel = False
    ops_per_kernel = 1

    def __init__(self, dc, seed: int, workdir: Path) -> None:
        self.dc = dc
        self.seed = seed
        self.tracer = Tracer(dc)

    def setup(self) -> list[Any]:
        return self.rotation(0)

    def rotation(self, index: int) -> list[CaseOp]:
        return [
            CaseOp(case, inputs.closed_form(case, self.dc))
            for case in inputs.rotation(self.seed, self.name, index, self.dc)
        ]

    def label(self, op: CaseOp) -> str:
        return op.case.cls

    def timed(self, op: CaseOp, traced: bool = False):
        law, gait = op.case.build(self.dc)
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            t0 = perf_counter_ns()
            result = self._call(law, gait, op)
            raw = perf_counter_ns() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        return raw, result, self.tracer.snapshot() if traced else None


class Cycles(_InProcess):
    """One ``engine.verify`` per op at the default dt; ``cycle_displacement``
    for the classes with no closed form."""

    name = "cycles"

    def _call(self, law, gait, op: CaseOp):
        if op.case.closed_form:
            return self.dc.engine.verify(law, gait)
        return self.dc.engine.cycle_displacement(law, gait)

    def check(self, op: CaseOp, result) -> str | None:
        if op.case.closed_form:
            if not result.checks or not result.passed:
                failed = [c.name for c in result.checks if not c.passed]
                return f"verify failed: {failed}"
            if _rel_err(result.checks[0].analytic, op.closed_form) > 1e-12:
                return "engine's closed form disagrees with analytic"
            return None
        if result.analytic_value is not None:
            return "unexpected closed form"
        if not math.isfinite(result.net_displacement):
            return "non-finite displacement"
        if sum(result.meta["regime_counts"].values()) != result.n_steps:
            return "regime counts do not cover every step"
        return None


class Trajectory(_InProcess):
    """One multi-period ``engine.simulate`` per op at the default dt."""

    name = "trajectory"

    def _call(self, law, gait, op: CaseOp):
        return self.dc.engine.simulate(law, gait, n_periods=TRAJECTORY_PERIODS)

    def check(self, op: CaseOp, traj) -> str | None:
        arrays = (traj.times, traj.x1, traj.x2, traj.l)
        if not all(bool(np.all(np.isfinite(a))) for a in arrays):
            return "non-finite samples"
        if len(traj.regimes) != len(traj.times) - 1:
            return "one regime per step expected"
        # x2 - x1 == l exactly, in the form the engine builds it.
        if not np.array_equal(traj.x2, traj.x1 + traj.l):
            return "x2 != x1 + l"
        if op.closed_form is not None:
            target = TRAJECTORY_PERIODS * op.closed_form
            if _rel_err(traj.net_displacement, target) > TRAJECTORY_PERIODS * TOL:
                return f"net displacement {traj.net_displacement!r} vs {target!r}"
        return None


@dataclass(frozen=True)
class CliOp:
    command: str
    index: int
    argv: tuple[str, ...]


class Cli:
    """One ``python -m dircrawl`` subprocess per op, over a pool of seeded
    configs written during setup."""

    name = "cli"
    rss_children = True  # peak RSS is that of the largest CLI process
    # Ops start processes, so they are normalized by the process kernel,
    # which costs about half an op: one kernel per three ops.
    process_kernel = True
    ops_per_kernel = 3

    def __init__(self, dc, seed: int, workdir: Path) -> None:
        self.dc = dc
        self.seed = seed
        self.workdir = workdir
        here = Path(__file__).resolve().parent
        self.child = str(here / "cli_child.py")
        src = str(here.parent / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.trace_out = workdir / "child-trace.json"
        self._expected: dict[tuple[str, int], Any] = {}

    def setup(self) -> list[CliOp]:
        self.cases = inputs.rotation(self.seed, self.name, 0, self.dc)
        self.verifiable = [i for i, c in enumerate(self.cases) if c.closed_form]
        for i, case in enumerate(self.cases):
            cfg = case.config()
            (self.workdir / f"cfg{i}.json").write_text(json.dumps(cfg))
            # A 3-row sweep over a rate parameter that changes no regime:
            # the period of a shape gait, the speed of a wave.
            axis, base = ("gait.c", cfg["gait"]["c"]) if case.kind == "square_wave" else (
                "gait.T", cfg["gait"]["T"])
            cfg["sweep"] = {"axes": [{"path": axis, "values": [base, 1.25 * base, 1.5 * base]}]}
            (self.workdir / f"sweep{i}.json").write_text(json.dumps(cfg))
        return self.rotation(0)

    def rotation(self, index: int) -> list[CliOp]:
        n = len(self.cases)
        rng = random.Random(f"dircrawl-bench:{self.seed}:cli-figures:{index}")
        alphas = ",".join(repr(round(rng.uniform(0.1, 0.9), 4)) for _ in range(3))
        betas2 = ",".join(repr(round(rng.uniform(0.25, 4.0), 4)) for _ in range(3))
        i_sim, i_ana = index % n, (index + 5) % n
        i_ver = self.verifiable[index % len(self.verifiable)]
        i_swp = (index + 10) % n
        return [
            CliOp("simulate", i_sim, ("simulate", "--config", self._cfg(i_sim))),
            CliOp("analytic", i_ana, ("analytic", "--config", self._cfg(i_ana))),
            CliOp("verify", i_ver, ("verify", "--config", self._cfg(i_ver))),
            CliOp("sweep", i_swp, ("sweep", "--config", str(self.workdir / f"sweep{i_swp}.json"))),
            CliOp("fig6", index, ("figure", "fig6", "--alphas", alphas)),
            CliOp("fig7", index, ("figure", "fig7", "--betas-squared", betas2)),
        ]

    def _cfg(self, i: int) -> str:
        return str(self.workdir / f"cfg{i}.json")

    def label(self, op: CliOp) -> str:
        return op.command

    def timed(self, op: CliOp, traced: bool = False):
        if traced:
            cmd = [sys.executable, self.child, *op.argv]
            env = dict(self.env, PERFBENCH_TRACE_OUT=str(self.trace_out))
        else:
            cmd = [sys.executable, "-m", "dircrawl", *op.argv]
            env = self.env
        raw, proc = kernel.run_child(cmd, env=env, cwd=self.workdir)
        snap = None
        if traced and proc.returncode == 0:
            snap = json.loads(self.trace_out.read_text())
            self.trace_out.unlink()
        return raw, proc, snap

    # -- checking against the in-process library ---------------------------

    def _lib(self, op: CliOp):
        key = (op.command, op.index)
        if key not in self._expected:
            engine = self.dc.engine
            if op.command.startswith("fig"):
                values = [float(v) for v in op.argv[3].split(",")]
                if op.command == "fig6":
                    return engine.figure6_data(alphas=values)
                return engine.figure7_data(betas=[v**0.5 for v in values])
            law, gait = self.cases[op.index].build(self.dc)
            if op.command == "simulate":
                value = engine.simulate(law, gait)
            elif op.command == "analytic":
                value = engine.cycle_displacement(law, gait)
            elif op.command == "verify":
                value = engine.verify(law, gait)
            else:
                cfg = json.loads(Path(op.argv[2]).read_text())
                axes = [(a["path"], a["values"]) for a in cfg["sweep"]["axes"]]
                value = engine.sweep(law, gait, axes)
            self._expected[key] = value
        return self._expected[key]

    def check(self, op: CliOp, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        text = proc.stdout.decode()
        try:
            return getattr(self, f"_check_{op.command}")(text, self._lib(op))
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    @staticmethod
    def _csv(text: str) -> tuple[list[str], list[list[str]]]:
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], rows[1:]

    def _check_simulate(self, text: str, traj) -> str | None:
        header, rows = self._csv(text)
        if header != ["t", "x1", "x2", "l", "regime"] or len(rows) != len(traj.times):
            return "unexpected CSV shape"
        n_steps = len(traj.regimes)
        for i, (t, x1, x2, l, regime) in enumerate(rows):
            values = (float(t), float(x1), float(x2), float(l))
            expect = (traj.times[i], traj.x1[i], traj.x2[i], traj.l[i])
            if values != tuple(float(v) for v in expect):
                return f"row {i} differs from the library"
            if regime != traj.regimes[min(i, n_steps - 1)]:
                return f"row {i} regime differs"
            if values[2] != values[1] + values[3]:
                return f"row {i}: x2 != x1 + l"
        return None

    @staticmethod
    def _check_analytic(text: str, rep) -> str | None:
        obj = json.loads(text)
        got = (
            obj["analytic_value"],
            obj["net_displacement_numeric"],
            obj["contributions"],
            obj["abs_residual"],
        )
        want = (
            rep.analytic_value,
            rep.net_displacement,
            dict(rep.contributions),
            rep.abs_residual,
        )
        return None if got == want else "analytic JSON differs from the library"

    @staticmethod
    def _check_verify(text: str, report) -> str | None:
        obj = json.loads(text)
        got = [(c["name"], c["numeric"], c["analytic"], c["residual"], c["passed"]) for c in obj["checks"]]
        want = [(c.name, c.numeric, c.analytic, c.residual, c.passed) for c in report.checks]
        if not obj["passed"] or got != want:
            return "verify JSON differs from the library or failed"
        return None

    def _check_sweep(self, text: str, rows) -> str | None:
        _, out = self._csv(text)
        if len(out) != len(rows):
            return "sweep row count differs"
        for line, row in zip(out, rows):
            if row.error is not None or line[-1] != "":
                return f"sweep row {row.index} failed: {row.error or line[-1]}"
            if float(line[2]) != row.report.net_displacement:
                return f"sweep row {row.index} differs from the library"
        return None

    def _check_figure(self, text: str, rows) -> str | None:
        _, out = self._csv(text)
        got = [tuple(float(v) for v in line) for line in out]
        return None if got == [tuple(r) for r in rows] else "figure rows differ from the library"

    _check_fig6 = _check_figure
    _check_fig7 = _check_figure


WORKLOADS = {"cycles": Cycles, "trajectory": Trajectory, "cli": Cli}
