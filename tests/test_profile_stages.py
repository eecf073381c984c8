"""The default cycle integrator on profile gaits over rate-independent laws.

On a dry or Newtonian law the solved velocity is linear in the shape rate,
so ``engine._gauss_cycle`` solves a breather or a constant-length crawler
once per sign of the profile rate and integrates ``c * p'(t)``.  The oracle
is the per-node integrator it replaced, ``oracles.reference_profile_stages``:
one solve at every Gauss–Kronrod node.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import dircrawl
from dircrawl import analytic, balance, engine
from dircrawl.body import Breather
from dircrawl.friction import FrictionLaw
from oracles import reference_profile_stages

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

RATE_LINEAR = tuple(
    f"{gait}/{law}" for gait in ("breather", "constant_length") for law in ("dry", "newtonian")
)
_SEEDS = (*range(1, 41), *range(101, 141))


def _cases(cls):
    for seed in _SEEDS:
        yield seed, inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)


@pytest.mark.parametrize("cls", RATE_LINEAR)
def test_stage_sums_match_the_per_node_integrator(cls):
    for seed, (law, gait) in _cases(cls):
        rep = engine.cycle_displacement(law, gait)
        expected = reference_profile_stages(law, gait, engine._CYCLE_TOL)
        got = [value for _, value in rep.contributions]
        assert len(got) == len(expected), seed
        for value, ref in zip(got, expected):
            assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), (seed, value, ref)
        assert rep.n_steps == 2, seed


@pytest.mark.parametrize("cls", RATE_LINEAR)
def test_velocity_over_rate_is_one_value_per_stage(cls):
    # the property the one-solve path rests on: x1dot / p' at the 15 nodes
    # of a stage equals its value at the middle node (the largest spread
    # on these cases is 7.4e-16)
    for seed, (law, gait) in _cases(cls):
        for a, b in analytic._corner_spans(gait.corner_times(), gait.period):
            half = 0.5 * (b - a)
            ratios = []
            for node, _, _ in analytic._QK15:
                t = a + half + half * node
                pieces, length = gait._pieces_at(t)
                ratios.append(balance._solve(law, pieces, length)[0] / gait._rate(t))
            middle = ratios[len(ratios) // 2]
            for ratio in ratios:
                assert abs(ratio - middle) <= 2e-15 * abs(middle), (seed, a, ratios)


def _bump(delta: float, period: float, corners):
    return Breather(
        1.0,
        0.0,
        period,
        profile=lambda t: 1.0 + delta * math.sin(math.pi * t / period) ** 2,
        profile_rate=lambda t: delta * math.pi / period * math.sin(2.0 * math.pi * t / period),
        corners=corners,
    )


@pytest.mark.parametrize(
    "law", [FrictionLaw(0.75, 0.25, 0.0, 0.0), FrictionLaw(0.0, 0.0, 1.0, 3.0)], ids=["dry", "newtonian"]
)
def test_a_stage_whose_rate_changes_sign_is_cut_and_solved_on_each_side(law):
    # corners that omit the turning point: the sign switch inside the one
    # stage is cut like any structure switch, each side solved once; the
    # closed form trusts the corners and reads 0.0 there, so verify fails
    cornered = engine.cycle_displacement(law, _bump(0.5, 2.0, (0.0, 1.0, 2.0)))
    uncut = engine.cycle_displacement(law, _bump(0.5, 2.0, (0.0, 2.0)))
    assert cornered.n_steps == uncut.n_steps == 2
    assert abs(uncut.net_displacement - cornered.net_displacement) <= 1e-11
    assert abs(cornered.net_displacement - cornered.analytic_value) <= 1e-11
    assert abs(cornered.net_displacement) > 0.01
    assert uncut.analytic_value == 0.0
    assert not engine.verify(law, _bump(0.5, 2.0, (0.0, 2.0))).passed


def test_every_node_still_checks_the_custom_profile():
    # l = 0.5 + cos(2 pi t) dips below zero mid-period, at nodes whose rate
    # sign was already solved
    law = FrictionLaw(0.75, 0.25, 0.0, 0.0)
    gait = Breather(
        1.0,
        0.0,
        1.0,
        profile=lambda t: 0.5 + math.cos(2.0 * math.pi * t),
        profile_rate=lambda t: -2.0 * math.pi * math.sin(2.0 * math.pi * t),
        corners=(0.0, 0.5, 1.0),
    )
    with pytest.raises(ValueError, match="non-positive length"):
        engine.cycle_displacement(law, gait)


def test_a_rate_that_is_not_finite_is_solved():
    # the rate overflows after the first nodes of its sign: solved as it
    # is, it fails as the per-node integrator fails, where c * p' would
    # carry an infinity into the quadrature
    law = FrictionLaw(0.0, 0.0, 1.0, 3.0)
    gait = Breather(
        1.0,
        0.0,
        1.0,
        profile=lambda t: 1.0,
        profile_rate=lambda t: math.inf if t > 0.5 else 1.0,
        corners=(0.0, 1.0),
    )
    with pytest.raises(dircrawl.DegenerateSubstrateError, match="force scale overflows"):
        engine.cycle_displacement(law, gait)
