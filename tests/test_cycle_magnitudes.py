"""The default cycle against its closed form at every magnitude.

Scaling a benchmark input's lengths by ``2**m``, its period by ``2**n``, its
yields by ``2**j`` and its viscosities by ``2**(j - m + n)`` scales every
force by ``2**(j + m)`` and the closed-form displacement by exactly ``2**m``.
The default cycle must follow: it agrees with the closed form to 1e-6 of
the larger of the length scale and the displacement, or it raises
:class:`DegenerateSubstrateError`, the README's contract where the balance
leaves the double range.  ``verify`` cannot show a miss below 1, since its
tolerance is floored at 1.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dircrawl
from dircrawl import engine
from dircrawl.body import Breather, CompositeStride, ConstantLength
from dircrawl.friction import FrictionLaw

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

_CLOSED_FORM = [c for c in inputs.CLASSES if c not in inputs.NO_CLOSED_FORM]
_LENGTHS = {
    "breather": ("L", "delta"),
    "constant_length": ("L", "x_star", "l1_rest", "delta"),
    "composite_stride": ("lambda", "delta"),
    "square_wave": ("L", "delta"),
}


def _scaled(case, m: int, n: int, j: int):
    """``case`` with lengths times ``2**m``, the period (a wave's speed
    divided) times ``2**n``, yields times ``2**j`` and viscosities times
    ``2**(j - m + n)``; exact, short of the subnormal range."""
    gait = []
    for key, value in case.gait:
        if key in _LENGTHS[case.kind]:
            value = math.ldexp(value, m)
        elif key == "T":
            value = math.ldexp(value, n)
        elif key == "c":
            value = math.ldexp(value, m - n)
        gait.append((key, value))
    tau_minus, tau_plus, mu_minus, mu_plus = case.law
    law = (
        math.ldexp(tau_minus, j),
        math.ldexp(tau_plus, j),
        math.ldexp(mu_minus, j - m + n),
        math.ldexp(mu_plus, j - m + n),
    )
    return inputs.Case(case.cls, law, case.kind, tuple(gait))


# Default cycles that came out wrong, with the (m, n, j) that scale each
# down to unit size: a gap polynomial's b * b left the double range, so its
# linear root -c/b came out twice too large (b * b underflows) or 0 (it
# overflows), and the stretch check, absolute below 1, let both through.
_B_SQUARED_OUT_OF_RANGE = [
    (
        inputs.Case(
            "composite_stride/dry",
            (5.383729353059416e-82, 5.760561779639371e-82, 0.0, 0.0),
            "composite_stride",
            (
                ("lambda", 2.0840175406540058e-44),
                ("delta", 3.955504610768569e-45),
                ("h", 1.7754082872744381),
                ("T", 3.1097958431145406e-86),
            ),
        ),
        (-145, -284, -270),
    ),
    (
        inputs.Case(
            "sliding_wave/newtonian",
            (0.0, 0.0, 6.474254828629127e223, 3.250741455649108e223),
            "square_wave",
            (
                ("L", 1.2270557408913889e-67),
                ("delta", 3.965381440497964e-68),
                ("epsilon", 0.7045985322066803),
                ("c", 1.5489941112695028e-149),
            ),
        ),
        (-222, 272, 249),
    ),
]


@pytest.mark.parametrize("case", [case for case, _ in _B_SQUARED_OUT_OF_RANGE])
def test_linear_roots_out_of_the_square_range_match_the_closed_form(case):
    law, gait = case.build(dircrawl)
    closed = inputs.closed_form(case, dircrawl)
    x = engine.cycle_displacement(law, gait).net_displacement
    assert x == pytest.approx(closed, rel=1e-12, abs=0.0)


def _unit_example(case, scale):
    m, n, j = scale
    return example(case=_scaled(case, -m, -n, -j), m=m, n=n, j=j)


_exponent = st.integers(-300, 300)


@settings(max_examples=1000)
@given(
    case=st.builds(
        lambda cls, seed: inputs.draw(seed, "cycles", 0, cls, dircrawl),
        st.sampled_from(_CLOSED_FORM),
        st.integers(1, 1000),
    ),
    m=_exponent,
    n=_exponent,
    j=_exponent,
)
@_unit_example(*_B_SQUARED_OUT_OF_RANGE[0])
@_unit_example(*_B_SQUARED_OUT_OF_RANGE[1])
def test_default_cycle_matches_its_closed_form_at_every_magnitude(case, m, n, j):
    scaled = _scaled(case, m, n, j)
    law, gait = scaled.build(dircrawl)
    closed = inputs.closed_form(scaled, dircrawl)
    try:
        x = engine.cycle_displacement(law, gait).net_displacement
    except dircrawl.DegenerateSubstrateError:
        return
    assert abs(x - closed) <= 1e-6 * max(math.ldexp(1.0, m), abs(closed)), (x, closed)


# A Newtonian law has no time scale: a period of 2**k leaves the cycle's
# displacement as it is, to the last bit, while the rates scale by 2**-k.
# The crossing piece's force terms square those rates; formed unscaled they
# drifted from k = 505 and raised DegenerateSubstrateError from |k| = 518.
_NEWTONIAN = FrictionLaw(0.0, 0.0, 1.0, 3.0)


@pytest.mark.bits
@pytest.mark.parametrize(
    "make",
    [
        lambda period: Breather(1.0, 0.4, period),
        lambda period: CompositeStride(0.5, 0.25, 1.5, period),
        lambda period: ConstantLength(1.0, 0.5, 0.4, 0.3, period),
    ],
    ids=["breather", "stride", "crawler"],
)
def test_a_period_of_two_to_the_k_keeps_every_bit_for_k_to_1000(make):
    base = engine.cycle_displacement(_NEWTONIAN, make(1.0)).net_displacement
    for k in (*range(-1000, 1001, 125), -540, -520, -518, 505, 515, 518, 520, 540):
        assert engine.cycle_displacement(_NEWTONIAN, make(2.0**k)).net_displacement == base, k


# The mixed crawler of seed 11 of the `cycles` stream scaled by (250, 250,
# 250): its forces reach ~2**500, where a gap polynomial's b * b and 4ac left
# the double range, its root was lost and both integrators raised
# DegenerateSubstrateError.  With the coefficients rescaled by a power of two
# each cycle is exactly 2**250 times its value at unit scale.
_SQUARE_OVERFLOWED = (inputs.draw(11, "cycles", 0, "constant_length/mixed", dircrawl), (250, 250, 250))


@pytest.mark.parametrize("integrator", ["default", "midpoint"])
def test_a_crawler_whose_square_left_the_range_scales_exactly(integrator):
    case, (m, n, j) = _SQUARE_OVERFLOWED

    def cycle(case):
        law, gait = case.build(dircrawl)
        dt = None if integrator == "default" else gait.period / 400
        return engine.cycle_displacement(law, gait, dt=dt).net_displacement

    scaled = _scaled(case, m, n, j)
    x = cycle(scaled)
    assert x == math.ldexp(cycle(case), m)
    if integrator == "default":
        closed = inputs.closed_form(scaled, dircrawl)
        assert abs(x - closed) <= 1e-6 * max(math.ldexp(1.0, m), abs(closed)), (x, closed)


# Midpoint cycles whose crossing pieces' rates leave [2**-256, 2**256]: at
# these scales the rates fall to ~2**-650 or rise to ~2**650, where their
# squares leave the double range.  Summed at unit scale
# (balance._unit_crossing), each cycle is 2**m times its unit-scale value,
# and no row goes to balance._solve.
_FAR_RATES = [(-400, 400, -250), (400, -400, 250)]
_FAR_RATE_CLASSES = [
    "composite_stride/dry",
    "composite_stride/newtonian",
    "composite_stride/mixed",
    "breather/mixed",
    "constant_length/mixed",
]


@pytest.mark.parametrize("scale", _FAR_RATES, ids=str)
@pytest.mark.parametrize("cls", _FAR_RATE_CLASSES)
def test_midpoint_cycles_with_rates_out_of_range_scale_exactly(monkeypatch, cls, scale):
    case, (m, n, j) = inputs.draw(1, "cycles", 0, cls, dircrawl), scale

    def cycle(case):
        law, gait = case.build(dircrawl)
        return engine.cycle_displacement(law, gait, dt=gait.period / 400).net_displacement

    unit = cycle(case)
    scalar_rows, solve = [], dircrawl.balance._solve
    monkeypatch.setattr(dircrawl.balance, "_solve", lambda *args: scalar_rows.append(args) or solve(*args))
    x = cycle(_scaled(case, m, n, j))
    assert abs(x - math.ldexp(unit, m)) <= 1e-13 * abs(math.ldexp(unit, m)), (x, unit)
    assert scalar_rows == []
