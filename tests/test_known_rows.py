"""Midpoint rows whose balance structure the stage model knows.

On a gait with constant-rate stages, ``midpoint._KnownRows`` gives a row
the structure of ``balance._AffineStage`` (a fixed value, or the root on a
known gap) when every candidate function of the model is farther than
``balance._MARGIN`` times atol from zero at the row's time; such a row
sums no force at its breakpoints.  The answer must still be
``balance.solve_velocity``'s bit for bit.  The rows that test this sit
where the model's structure changes: on every switch time of every stage,
the stage ends, and their float neighbours.  Both row sources, this one and
the profile gaits' (``tests/test_profile_rows.py``), resolve through
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
from dircrawl.body import TwoSegmentPath
from dircrawl.friction import FrictionLaw
from kernel_rows import assert_rows_match_solve_velocity, kernel_rows
from test_midpoint_edges import _LAWS, _edge_waves

pytestmark = pytest.mark.bits

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


def _assert_rows_match_solve_velocity(law, gait) -> tuple[int, int]:
    return assert_rows_match_solve_velocity(law, gait, _switch_times(law, gait))


@pytest.mark.parametrize("law", _LAWS)
def test_rows_on_switch_times_of_edge_gaits_match_solve_velocity(law):
    known = total = 0
    for gait in [*_edge_waves(), _PATH]:
        k, n = _assert_rows_match_solve_velocity(law, gait)
        known, total = known + k, total + n
    # most rows sit between targets, away from any switch
    assert known > total // 3, (known, total)


@pytest.mark.parametrize("cls", CONSTANT_RATE)
def test_rows_on_switch_times_of_benchmark_gaits_match_solve_velocity(cls):
    for seed in (1, 2, 3):
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        known, total = _assert_rows_match_solve_velocity(law, gait)
        assert known > total // 3, (seed, known, total)


def test_rows_next_to_a_switch_of_a_short_stage_late_in_the_period():
    # The middle stage lasts 1e-11 and starts at t = 7, so one float step
    # moves its candidate functions by some 1e7 atol, and the switch time (a
    # rounded root) is the last float before the sign change: located among
    # the stage's stretches by its time, the row there would take the next
    # stretch's gap.  Each row takes the structure of its own sign pattern.
    law = FrictionLaw(2.0, 0.0, 1.25, 1.0)
    gait = TwoSegmentPath(
        1.0, 0.5, (0.0, 7.0, 7.00000000001, 14.0), (1.3, 1.3, 1.6, 1.3), (1.7, 1.7, 0.66, 1.7)
    )
    known, total = _assert_rows_match_solve_velocity(law, gait)
    assert known > total // 3, (known, total)


def test_a_held_stage_under_a_newtonian_law_takes_zero():
    # A stage where every rate is 0 has a force scale of 0 under a Newtonian
    # law, so its model has no functions and places no row; its rows are a
    # body at rest and take +0.0, and the other stages keep their model.
    law = FrictionLaw(0.0, 0.0, 1.0, 3.0)
    gait = TwoSegmentPath(
        1.0, 0.5, (0.0, 0.3, 0.5, 1.0), (0.4, 0.7, 0.7, 0.4), (0.5, 0.3, 0.3, 0.5)
    )
    assert [balance._AffineStage(law, *s).conds is None for s in gait._stages()] == [
        False, True, False
    ]
    targets = np.arange(64) / 64
    known, total = assert_rows_match_solve_velocity(law, gait, targets)
    mids, x, _, _, _ = kernel_rows(law, gait, targets)
    # only a row on a stage end, inside no stage, reaches the scalar solver
    ends = {stage[0] for stage in gait._stages()}
    assert total - known == sum(t in ends for t in mids.tolist()) == 2
    held = (0.3 < mids) & (mids < 0.5)
    assert held.any() and x[held].tobytes() == np.zeros(held.sum()).tobytes()


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_the_stage_model_answers_nearly_every_row(monkeypatch, cls):
    # A model that sent every row to the scalar solver, or summed each row's
    # forces at its breakpoints, would pass every bit-identity test and save
    # nothing: each row of every class reads its gait family's model (the
    # stage model, or the profile rows' closed forms), and sums forces only
    # at its solution, for the residual.
    scalar_rows, probes = [], []
    solve, total_force_rows = balance._solve, midpoint._total_force_rows
    monkeypatch.setattr(
        midpoint,
        "_total_force_rows",
        lambda law, *args: probes.append(len(args[-1])) or total_force_rows(law, *args),
    )
    monkeypatch.setattr(balance, "_solve", lambda *args: scalar_rows.append(args) or solve(*args))
    for seed in (1, 2, 3):
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        engine.simulate(law, gait, n_periods=2)
    assert scalar_rows == []
    assert probes and set(probes) == {1}


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_plans_are_asked_per_run_of_rows_not_per_row(monkeypatch, cls):
    # Rows of one sign pattern come in runs, and a run asks balance._plan
    # once (the stage model once per pattern and call); a Python loop over
    # the rows would pass every bit-identity test and cost ~2000 calls here,
    # one per row of period 0, the one period a simulate solves.
    calls = []
    plan = balance._plan
    monkeypatch.setattr(balance, "_plan", lambda law, g: calls.append(1) or plan(law, g))
    for seed in (1, 2, 3):
        calls.clear()
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        steps = len(engine.simulate(law, gait, n_periods=2).regimes) // 2
        assert 0 < len(calls) < 0.01 * steps, (seed, len(calls), steps)
