"""The default cycle integrator's lean solve against the validating one.

``engine._gauss_cycle`` solves each node from ``gait._pieces_at(t)`` through
``balance._solve``; ``balance.solve_velocity`` on ``shape_at``/``rate_at``
is the public entry point and the oracle.  Both must agree bit for bit,
and the lean path must fail wherever the shapes would.
"""

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

import dircrawl
from dircrawl import analytic, balance
from dircrawl.body import Breather, ConstantLength, TwoSegmentPath
from oracles import reference_lengths, reference_locate

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

_SEEDS = range(101, 111)


def _times(gait, rng: random.Random) -> list[float]:
    """GK15 nodes of every corner span, every corner with its float
    neighbours (where the wave merges its front nodes), and random times."""
    out = []
    for a, b in analytic._corner_spans(gait.corner_times(), gait.period):
        half = 0.5 * (b - a)
        out.extend(a + half + half * x for x, _, _ in analytic._QK15)
    for c in gait.corner_times():
        out.extend((math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)))
    out.extend(rng.uniform(0.0, gait.period) for _ in range(10))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, dircrawl.DegenerateSubstrateError) as exc:
        return type(exc), str(exc)


def _hex(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_lean_solve_matches_solve_velocity_bit_for_bit(cls):
    for seed in _SEEDS:
        law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
        for t in _times(gait, random.Random(seed)):
            shape, rate = gait.shape_at(t), gait.rate_at(t)
            pieces, length = gait._pieces_at(t)
            assert pieces == balance._pieces(shape, rate), (seed, t)
            assert _hex([length]) == _hex([shape.length]), (seed, t)

            lean = _outcome(balance._solve, law, pieces, length)
            sol = _outcome(balance.solve_velocity, law, shape, rate)
            if not isinstance(sol, balance.BalanceSolution):
                assert lean == sol, (seed, t)
                continue
            x, regime, residual, stick, signs = lean
            assert _hex([x, residual]) == _hex([sol.x1dot, sol.residual]), (seed, t)
            assert regime == sol.regime, (seed, t)
            assert [_hex(iv) for iv in stick] == [_hex(iv) for iv in sol.stick_intervals]
            pattern = tuple((x + r > 0.0) - (x + r < 0.0) for pair in rate.seg_rates for r in pair)
            assert signs == pattern, (seed, t)


def _absorbing_path() -> tuple[TwoSegmentPath, float]:
    # valid at every vertex; just past l1 = 2**66 the float spacing of l1
    # doubles, so the interpolated l2 there is absorbed
    path = TwoSegmentPath(1.0, 0.5, (0.0, 1.0, 2.0), (7.3e19, 1.4e20, 7.3e19), (5e3, 9e3, 5e3))
    for i in range(1, 100):
        l1, l2 = reference_lengths(path, *reference_locate(path, i / 100))
        if l1 + l2 == l1:
            return path, i / 100
    raise AssertionError("no absorbing time found")


@pytest.mark.parametrize(
    "gait, t",
    [
        # a custom profile that reaches zero, goes negative, and is not a number
        (Breather(1.0, 0.0, 1.0, lambda t: 1.0 - 2.0 * t, lambda t: -2.0, (0.0, 1.0)), 0.5),
        (Breather(1.0, 0.0, 1.0, lambda t: 1.0 - 2.0 * t, lambda t: -2.0, (0.0, 1.0)), 0.75),
        (Breather(1.0, 0.0, 1.0, lambda t: math.nan, lambda t: 0.0, (0.0, 1.0)), 0.25),
        # l1 leaves (0, L) at the top and at the bottom
        (ConstantLength(1.0, 0.5, 0.4, 0.0, 1.0, lambda t: 0.4 + t, lambda t: 1.0, (0.0, 1.0)), 0.7),
        (ConstantLength(1.0, 0.5, 0.4, 0.0, 1.0, lambda t: 0.4 - t, lambda t: -1.0, (0.0, 1.0)), 0.5),
        _absorbing_path(),
    ],
    ids=["breather_zero", "breather_negative", "breather_nan", "l1_above", "l1_below",
         "path_absorbed"],
)
def test_lean_pieces_raise_what_shape_at_raises(gait, t):
    with pytest.raises(ValueError) as shape_err:
        gait.shape_at(t)
    with pytest.raises(ValueError) as pieces_err:
        gait._pieces_at(t)
    assert type(pieces_err.value) is type(shape_err.value)
    assert str(pieces_err.value) == str(shape_err.value)
