"""Integers that a float cannot hold, and integers beyond 2**53.

Python integers are exact, so an integer too large for a float is refused
with a ``ValueError`` naming its field, as the CLI refuses one in a config,
and not a bare ``OverflowError`` from deep inside a check.  The message
gives the integer's size, never its digits: the repr of an integer over
4300 digits raises.  A path's vertices are stored as floats, so that the
scalar path and the block sampler subtract the same numbers.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dircrawl import analytic, balance, engine, friction, midpoint
from dircrawl.body import Breather, CompositeStride, SquareWave, TwoSegmentPath
from dircrawl.friction import FrictionLaw

_LAW = FrictionLaw(0.75, 0.25, 0, 0)
_NEWTONIAN = FrictionLaw(0, 0, 2, 1)  # a sliding wave at epsilon 0.5, c 1, delta 0.2, L 1
_MIXED = FrictionLaw(1, 0.5, 1, 2)
_BUMP = (  # a breather's length profile over a period of 1, and its rate
    lambda t: 1.0 + 0.1 * math.sin(math.pi * t) ** 2,
    lambda t: 0.1 * math.pi * math.sin(2.0 * math.pi * t),
)
_HUGE = 10**400  # 1329 bits


def _refused(name: str, bits: int = 1329):
    return pytest.raises(
        ValueError,
        match="^" + re.escape(f"{name} is an integer of {bits} bits, too large for a float") + "$",
    )


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: FrictionLaw(_HUGE, 0, 0, 0), "tau_minus"),
        (lambda: FrictionLaw(1, 0, 0, -_HUGE), "mu_plus"),
        (lambda: Breather(1.0, 0.4, _HUGE), "period"),
        (lambda: SquareWave(_HUGE, 0.3, 0.4, 1.0), "ref_length"),
        (lambda: CompositeStride(_HUGE, 0.3, 1.5), "lam"),
        (lambda: TwoSegmentPath(1.0, 0.5, (0, 1, 2), (1, _HUGE, 1), (1, 1, 1)), "l1[1]"),
        (lambda: TwoSegmentPath(1.0, 0.5, (0, _HUGE, 2), (1, 2, 1), (1, 1, 1)), "times[1]"),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_a_field_too_large_for_a_float_is_refused_by_name(build, name):
    with _refused(name):
        build()


@pytest.mark.parametrize(
    "run, name",
    [
        (lambda g: engine.simulate(_LAW, g, x0=_HUGE), "x0"),
        (lambda g: engine.cycle_displacement(_LAW, g, dt=_HUGE), "dt"),
        (lambda g: engine.simulate(_LAW, g, dt=-_HUGE), "dt"),
        (lambda g: engine.verify(_LAW, g, tol=_HUGE), "tol"),
        (lambda g: engine.sweep(_LAW, g, [("gait.delta", [0.3])], dt=_HUGE), "dt"),
        (lambda g: analytic.stickslip_displacement(0.5, _HUGE), "delta"),
        (lambda g: analytic.composite_stride_displacement(_LAW, _HUGE, 0.2, 2.0), "lam"),
        (lambda g: analytic.negative_displacement_feasible(_LAW, 0.3, 0.2, _HUGE), "h"),
        (lambda g: analytic.wave_admissibility(_NEWTONIAN, 0.5, _HUGE, 0.2, 1.0), "c"),
        (lambda g: analytic.wave_admissibility(_NEWTONIAN, 0.5, 1.0, _HUGE, 1.0), "delta"),
        (lambda g: analytic.stickslip_delta_max(_LAW, 0.5, 1.0, -_HUGE), "L"),
        (lambda g: analytic.sliding_delta_max(_NEWTONIAN, _HUGE, 1.0, 1.0), "epsilon"),
        (lambda g: analytic.stickslip_max_displacement_dry(0.5, 0.3, _HUGE), "L"),
        (lambda g: analytic.stickslip_max_displacement_dry(_HUGE, 0.3, 1.0), "alpha_value"),
        (lambda g: analytic.breather_velocity(_MIXED, _HUGE), "ldot"),
        (lambda g: analytic.breather_roots(_MIXED, -_HUGE), "ldot"),
        (lambda g: analytic.sliding_cycle_displacement(_NEWTONIAN, 0.5, 1.0, 0.2, _HUGE), "L"),
        (lambda g: analytic.breather_cycle_displacement(_MIXED, *_BUMP, _HUGE), "period"),
        (lambda g: analytic.breather_cycle_displacement(_MIXED, *_BUMP, 1.0, tol=_HUGE), "tol"),
        (lambda g: engine.figure6_data(epsilons=(_HUGE,)), "epsilon"),
        (lambda g: engine.figure7_data(betas=(_HUGE,)), "beta"),
        (lambda g: engine.figure7_data(delta_over_length=_HUGE), "delta_over_length"),
        (lambda g: friction.scale(_LAW, _HUGE), "k"),
        (lambda g: friction.evaluate(_LAW, -_HUGE), "v"),
        (lambda g: analytic.newtonian_sliding_displacement(_HUGE, 0.5, 0.2, 1.0), "beta_value"),
        (lambda g: engine.figure6_data(alphas=(_HUGE,)), "alpha"),
        (lambda g: analytic.sliding_stage_velocity(_NEWTONIAN, 0.5, 1.0, 0.2, 1.0, _HUGE), "t"),
        (lambda g: balance.total_force(_LAW, g.shape_at(0.1), g.rate_at(0.1), _HUGE), "x1dot"),
        (lambda g: engine.sweep(_LAW, g, [("gait.delta", [0.3, _HUGE])]), "gait.delta"),
    ],
    ids=[
        "simulate-x0", "cycle-dt", "simulate-negative-dt", "verify-tol", "sweep-dt",
        "stickslip-displacement-delta", "stride-lam", "feasible-h", "admissibility-c",
        "admissibility-delta", "stickslip-bound-L", "sliding-bound-epsilon",
        "stickslip-max-L", "stickslip-max-alpha", "breather-velocity-ldot",
        "breather-roots-ldot", "sliding-cycle-L", "breather-cycle-period",
        "breather-cycle-tol", "figure6-epsilon", "figure7-beta", "figure7-width",
        "scale-k", "evaluate-v", "newtonian-sliding-beta", "figure6-alpha",
        "sliding-stage-t", "total-force-x1dot", "sweep-value",
    ],
)
def test_an_argument_too_large_for_a_float_is_refused_by_name(run, name):
    with _refused(name):
        run(SquareWave(1.0, 0.3, 0.4, 1.0))


def test_the_message_holds_no_digits_of_an_integer_too_long_to_print():
    # 5000 digits: str() and repr() of it raise
    with _refused("tol", 16610):
        engine.verify(_LAW, SquareWave(1.0, 0.3, 0.4, 1.0), tol=-(10**5000))


def test_figure6_names_an_alpha_too_long_to_print():
    # at the parent its message raised Python's 4300-digit limit instead
    with _refused("alpha", 16610):
        engine.figure6_data(alphas=(10**5000,))


def test_path_vertices_beyond_2_53_give_one_rate_on_every_path():
    # 2**54 + 3 rounds to 2**54 + 4: exactly, the edge rates would be 3,
    # and the block sampler, which converts to floats, read 4
    gait = TwoSegmentPath(1.0, 0.5, (0, 1, 2), (2**54, 2**54 + 3, 2**54), (2**54,) * 3)
    assert all(type(v) is float for v in (*gait.times, *gait.l1, *gait.l2))
    assert gait.l1[1] == 2.0**54 + 4
    _, rates = midpoint._shapes(gait, np.array([0.5, 1.5]))
    assert gait.rate_at(0.5).seg_rates == ((0.0, 4.0), (4.0, 4.0))
    assert gait.rate_at(1.5).seg_rates == ((0.0, -4.0), (-4.0, -4.0))
    assert rates().tolist() == [[[0.0, 4.0], [4.0, 4.0]], [[0.0, -4.0], [-4.0, -4.0]]]
    # both integrators move the body 2.0 a cycle
    assert engine.cycle_displacement(_LAW, gait).net_displacement == 2.0
    assert engine.cycle_displacement(_LAW, gait, dt=0.01).net_displacement == 2.0
