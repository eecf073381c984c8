"""The library reaches the scalar layer one way.

``balance._solve`` on plain pieces, with ``gait._pieces_at`` wherever one
time is checked, is the only route into the balance from the midpoint grid
and the default cycle alike.  ``balance.solve_velocity``,
``balance.total_force``, the gaits' ``shape_at``/``rate_at`` and the shape
and rate objects are public API and the tests' oracle, which no library
path calls or builds: with each of them made to raise, every result and
every error of the public entry points must be what it is without that.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dircrawl
from dircrawl import balance, body, engine, midpoint
from dircrawl.body import Breather, SquareWave
from dircrawl.friction import FrictionLaw
from test_batched import _THREE_REGIMES

pytestmark = pytest.mark.bits

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

_GAITS = ("Breather", "ConstantLength", "TwoSegmentPath", "CompositeStride", "SquareWave")
_LAWS = [
    FrictionLaw(0.75, 0.25, 0.0, 0.0),
    FrictionLaw(0.0, 0.0, 1.0, 0.4),
    FrictionLaw(1.0, 0.5, 1.0, 0.5),
]
_MIXED = _LAWS[2]
# The scalar loop's first error: the length reaches 0 at t = 0.5.
_FAILING_PROFILE = Breather(
    1.0, 0.5, 1.0, profile=lambda t: 1.0 - 2.0 * t, profile_rate=lambda t: -2.0
)


def _outcome(fn, *args, **kwargs):
    """``fn``'s result in a comparable form, or its error's type and message."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, engine.Trajectory):
        arrays = (result.times, result.x1, result.x2, result.l)
        return tuple(np.asarray(a).tobytes() for a in arrays), result.regimes, repr(result.meta)
    return repr(result)


def _entry_points(law, gait) -> list:
    return [
        _outcome(engine.simulate, law, gait),
        _outcome(engine.cycle_displacement, law, gait),
        _outcome(engine.cycle_displacement, law, gait, dt=gait.period / 300),
        _outcome(engine.verify, law, gait),
        _outcome(engine.sweep, law, gait, [("law.tau_minus", [law.tau_minus])]),
    ]


def _refuse(*args, **kwargs):
    raise AssertionError("the public scalar path was called")


def _close_the_public_path(monkeypatch) -> None:
    monkeypatch.setattr(balance, "solve_velocity", _refuse)
    monkeypatch.setattr(balance, "total_force", _refuse)
    for name in _GAITS:
        monkeypatch.setattr(getattr(body, name), "shape_at", _refuse)
        monkeypatch.setattr(getattr(body, name), "rate_at", _refuse)
    monkeypatch.setattr(body.PiecewiseAffineShape, "__post_init__", _refuse)
    monkeypatch.setattr(body.ShapeRate, "__post_init__", _refuse)


def _two_roots(monkeypatch) -> None:
    """Report two roots for every row on a gap root, so that every such row
    falls back to the scalar solver."""
    poly_roots_rows = midpoint._poly_roots_rows

    def two_roots(*args):
        first, n_roots = poly_roots_rows(*args)
        return np.zeros_like(first), np.full_like(n_roots, 2)

    monkeypatch.setattr(midpoint, "_poly_roots_rows", two_roots)


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_benchmark_classes_take_no_public_scalar_path(monkeypatch, cls):
    law, gait = inputs.draw(1, "trajectory", 0, cls, dircrawl).build(dircrawl)
    expected = _entry_points(law, gait)
    _close_the_public_path(monkeypatch)
    assert _entry_points(law, gait) == expected


@pytest.mark.parametrize(
    "gait", [SquareWave(1.0, 0.3, 0.5, 1.0), Breather(1.0, 0.5, 1.0), _THREE_REGIMES]
)
def test_fallback_rows_take_no_public_scalar_path(monkeypatch, gait):
    _two_roots(monkeypatch)
    expected = [_outcome(engine.simulate, law, gait) for law in _LAWS]
    _close_the_public_path(monkeypatch)
    assert [_outcome(engine.simulate, law, gait) for law in _LAWS] == expected


@pytest.mark.parametrize(
    "law, gait",
    [
        (_MIXED, _FAILING_PROFILE),
        # the force scale overflows (DegenerateSubstrateError)
        (_MIXED, Breather(ref_length=1e200, delta=1e199, period=1.0)),
    ],
)
def test_failing_runs_raise_their_errors_without_the_public_scalar_path(monkeypatch, law, gait):
    expected = _entry_points(law, gait)
    assert all(isinstance(e, tuple) and issubclass(e[0], Exception) for e in expected[:3])
    _close_the_public_path(monkeypatch)
    assert _entry_points(law, gait) == expected
