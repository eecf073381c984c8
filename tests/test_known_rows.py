"""Midpoint rows whose balance structure the stage model knows.

On a gait with constant-rate stages, ``midpoint._KnownRows`` gives a row
the structure of ``balance._AffineStage`` (a fixed value, or the root on a
known gap) when every candidate function of the model is farther than
``balance._MARGIN`` times atol from zero at the row's time; such a row
skips the batch's bracket pass.  The answer must still be ``balance.solve_velocity``'s
bit for bit.  The rows that test this sit where the model's structure
changes: on every switch time of every stage, the stage ends, and their
float neighbours.  Both the model's rows and the batch's resolve through
``balance._plan`` once per run of one sign pattern, not once per row.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dircrawl
from dircrawl import balance, engine, midpoint
from dircrawl.balance import REGIMES, solve_velocity
from dircrawl.body import TwoSegmentPath
from dircrawl.friction import FrictionLaw
from test_midpoint_edges import _LAWS, _edge_waves

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

CONSTANT_RATE = tuple(
    c
    for c in inputs.CLASSES
    if c.split("/")[0] in ("composite_stride", "stick_slip_wave", "sliding_wave")
)
_PATH = TwoSegmentPath(1.0, 0.5, (0.0, 0.4, 1.0), (0.4, 0.7, 0.4), (0.5, 0.3, 0.5))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _near(t: float, steps: int = 3) -> list[float]:
    """``t`` and its ``steps`` float neighbours on either side."""
    out = [t]
    lo = hi = t
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _switch_times(law, gait) -> list[float]:
    """Every switch time of every stage model, the stage ends, and their
    float neighbours, within the period."""
    times = set()
    for stage in gait._stages():
        model = balance._AffineStage(law, *stage)
        switches = model.switches() if model.conds is not None else []
        for t in (stage[0], *switches, stage[1]):
            times.update(_near(t))
    return sorted(t for t in times if 0.0 <= t <= gait.period)


def _kernel_rows(monkeypatch, law, gait, targets):
    """``midpoint._kernel`` on a grid whose step midpoints include every
    target (a step from t to t has its midpoint at t): per row, the
    midpoint, ``x1dot``, regime code and residual, and how many rows the
    stage model knew: those that did not reach ``balance.solve_velocity``."""
    times = np.repeat(np.array(targets), 2)
    seen = []
    solve = midpoint._KnownRows.solve

    def spy_solve(self, tm, arcs, rates):
        out = solve(self, tm, arcs, rates)
        seen.append(out)
        return out

    scalar_rows = []
    monkeypatch.setattr(midpoint._KnownRows, "solve", spy_solve)
    monkeypatch.setattr(
        balance, "solve_velocity", lambda *args: scalar_rows.append(args) or solve_velocity(*args)
    )
    x1dot, codes, residual_max = midpoint._kernel(law, gait, times, None)
    x, regime, residual = (np.concatenate(a) for a in zip(*seen))
    mids = 0.5 * (times[:-1] + times[1:])  # as the kernel computes them
    assert x.tobytes() == x1dot.tobytes() and regime.tobytes() == codes.tobytes()
    assert residual_max == residual.max()
    return mids, x, regime, residual, len(mids) - len(scalar_rows)


def _assert_rows_match_solve_velocity(monkeypatch, law, gait) -> tuple[int, int]:
    targets = _switch_times(law, gait)
    mids, x, regime, residual, known = _kernel_rows(monkeypatch, law, gait, targets)
    for i, t in enumerate(mids.tolist()):
        sol = solve_velocity(law, gait.shape_at(t), gait.rate_at(t))
        assert _bits([x[i], residual[i]]) == _bits([sol.x1dot, sol.residual]), (law, gait, t)
        assert REGIMES[regime[i]] == sol.regime, (law, gait, t)
    return known, len(mids)


@pytest.mark.parametrize("law", _LAWS)
def test_rows_on_switch_times_of_edge_gaits_match_solve_velocity(monkeypatch, law):
    known = total = 0
    for gait in [*_edge_waves(), _PATH]:
        k, n = _assert_rows_match_solve_velocity(monkeypatch, law, gait)
        known, total = known + k, total + n
    # most rows sit between targets, away from any switch
    assert known > total // 3, (known, total)


@pytest.mark.parametrize("cls", CONSTANT_RATE)
def test_rows_on_switch_times_of_benchmark_gaits_match_solve_velocity(monkeypatch, cls):
    for seed in (1, 2, 3):
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        known, total = _assert_rows_match_solve_velocity(monkeypatch, law, gait)
        assert known > total // 3, (seed, known, total)


def test_rows_next_to_a_switch_of_a_short_stage_late_in_the_period(monkeypatch):
    # The middle stage lasts 1e-11 and starts at t = 7, so one float step
    # moves its candidate functions by some 1e7 atol, and the switch time (a
    # rounded root) is the last float before the sign change: located among
    # the stage's stretches by its time, the row there would take the next
    # stretch's gap.  Each row takes the structure of its own sign pattern.
    law = FrictionLaw(2.0, 0.0, 1.25, 1.0)
    gait = TwoSegmentPath(
        1.0, 0.5, (0.0, 7.0, 7.00000000001, 14.0), (1.3, 1.3, 1.6, 1.3), (1.7, 1.7, 0.66, 1.7)
    )
    known, total = _assert_rows_match_solve_velocity(monkeypatch, law, gait)
    assert known > total // 3, (known, total)


@pytest.mark.parametrize("cls", CONSTANT_RATE)
def test_the_stage_model_answers_nearly_every_row(monkeypatch, cls):
    # A model that sent every row to the scalar solver, or every gait to the
    # batch, would pass every bit-identity test and save nothing.
    batch_rows, scalar_rows = [], []
    batch = midpoint.solve_velocity_batch
    monkeypatch.setattr(
        midpoint,
        "solve_velocity_batch",
        lambda law, arcs, rates: batch_rows.append(len(arcs)) or batch(law, arcs, rates),
    )
    monkeypatch.setattr(
        balance, "solve_velocity", lambda *args: scalar_rows.append(args) or solve_velocity(*args)
    )
    steps = 0
    for seed in (1, 2, 3):
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        steps += len(engine.simulate(law, gait, n_periods=2).regimes)
    assert sum(batch_rows) < 0.01 * steps, (sum(batch_rows), steps)
    assert scalar_rows == []


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_plans_are_asked_per_run_of_rows_not_per_row(monkeypatch, cls):
    # Rows of one sign pattern come in runs, and a run asks balance._plan
    # once (the stage model once per pattern and call); a Python loop over
    # the rows would pass every bit-identity test and cost ~4000 calls here.
    calls = []
    plan = balance._plan
    monkeypatch.setattr(balance, "_plan", lambda law, g: calls.append(1) or plan(law, g))
    for seed in (1, 2, 3):
        calls.clear()
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        steps = len(engine.simulate(law, gait, n_periods=2).regimes)
        assert 0 < len(calls) < 0.01 * steps, (seed, len(calls), steps)
