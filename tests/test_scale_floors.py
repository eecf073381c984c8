"""``balance`` alone turns a solve's rates and length into its scales.

``balance._breaks_and_scales`` and ``balance._widened`` hold the rule,
including its unit floors ``_VSCALE_FLOOR`` and ``_WIDTH_FLOOR``.  The
constant-rate stage model in ``engine`` calls those helpers, and the batch
solver in ``midpoint`` reads the floors.  So a patched floor must move all three
together: the batch rows stay equal to the scalar solver bit for bit, and
the stage model still agrees with every solve it predicts.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dircrawl
from dircrawl import balance, engine, midpoint
from dircrawl.body import Breather, SquareWave
from dircrawl.friction import FrictionLaw

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
# Far below the unit floors, where they decide the answer: with floors at 1,
# every force of these Newtonian gaits is within the acceptance tolerance.
_NEWTONIAN = FrictionLaw(0.0, 0.0, 1.0, 3.0)
_TINY_RATES = (
    (_NEWTONIAN, SquareWave(1.0, 0.3, 0.5, 1e-14)),
    (_NEWTONIAN, Breather(1.0, 0.5, 1e14)),
)
_FLOOR = 2.0**-20


@pytest.fixture
def floors(monkeypatch):
    monkeypatch.setattr(balance, "_VSCALE_FLOOR", _FLOOR)
    monkeypatch.setattr(balance, "_WIDTH_FLOOR", _FLOOR)


def _times(gait) -> list[float]:
    return [(k + 0.5) * gait.period / 64 for k in range(64)]


def _scalar_rows(law, gait) -> list[balance.BalanceSolution]:
    return [balance.solve_velocity(law, gait.shape_at(t), gait.rate_at(t)) for t in _times(gait)]


def test_patched_floors_change_the_scalar_solve():
    before = [_scalar_rows(law, gait) for law, gait in _TINY_RATES]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balance, "_VSCALE_FLOOR", _FLOOR)
        mp.setattr(balance, "_WIDTH_FLOOR", _FLOOR)
        after = [_scalar_rows(law, gait) for law, gait in _TINY_RATES]
    for rows_before, rows_after in zip(before, after):
        assert all(sol.x1dot == 0.0 for sol in rows_before)
        assert any(sol.x1dot != 0.0 for sol in rows_after)


def test_batch_rows_follow_the_patched_floors(floors, monkeypatch):
    fallback_rows = []
    scalar = balance.solve_velocity
    monkeypatch.setattr(
        balance, "solve_velocity", lambda *args: fallback_rows.append(args) or scalar(*args)
    )
    cases = list(_TINY_RATES)
    for cls in inputs.CLASSES:
        cases.append(inputs.draw(1, "trajectory", 0, cls, dircrawl).build(dircrawl))
    for law, gait in cases:
        expected = _scalar_rows(law, gait)
        fallback_rows.clear()
        block = midpoint.sample(gait, _times(gait))
        x1dot, regime, residual = midpoint.solve_velocity_batch(law, *block)
        assert fallback_rows == [], gait
        assert x1dot.tobytes() == np.array([sol.x1dot for sol in expected]).tobytes(), gait
        assert [balance.REGIMES[r] for r in regime] == [sol.regime for sol in expected], gait
        assert residual.tobytes() == np.array([sol.residual for sol in expected]).tobytes(), gait


def test_stage_model_follows_the_patched_floors(floors, monkeypatch):
    # A stretch whose solve disagrees with the model's prediction, or a stage
    # the model cannot describe, is integrated by quadrature over the solver.
    disagreements = []
    sub_interval, stage = engine._sub_interval, engine._AffineStage

    def checked_sub_interval(*args):
        part = sub_interval(*args)
        if part is None:
            disagreements.append(args[1:])
        return part

    class CheckedStage(stage):
        def __init__(self, *args):
            super().__init__(*args)
            if self.conds is None:
                disagreements.append(args[1:3])

    monkeypatch.setattr(engine, "_sub_interval", checked_sub_interval)
    monkeypatch.setattr(engine, "_AffineStage", CheckedStage)
    for cls in CONSTANT_RATE:
        for seed in range(1, 21):
            law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
            engine.cycle_displacement(law, gait)
            assert disagreements == [], (cls, seed)
