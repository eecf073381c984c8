"""The gap root of a constant-rate stage, integrated in closed form.

On a stretch of a constant-rate stage the solved velocity is the falling
root of ``a x^2 + b x + c`` with coefficients affine in t, and
``engine._sub_interval`` integrates it with ``analytic._root_mean``; no
quadrature is left on these stages.  The oracles here share none of its
algebra: scipy's ``quad`` (QUADPACK) over ``engine._falling_root`` of the
interpolated coefficients, over ``balance._solve`` itself, and
``analytic.adaptive_gauss`` over the root, which integrated these stretches
before.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import dircrawl
from dircrawl import analytic, balance, engine
from dircrawl.body import TwoSegmentPath
from dircrawl.friction import FrictionLaw

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

CONSTANT_RATE = tuple(
    c for c in inputs.CLASSES if c.split("/")[0] in ("composite_stride", "stick_slip_wave", "sliding_wave")
)


def _quad(f, a: float, b: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _lerp(end0, end1, w: float):
    """The coefficients at ``t`` in ``[0, w]``, affine between the ends."""
    return lambda t: tuple(e0 + t / w * (e1 - e0) for e0, e1 in zip(end0, end1))


def _closed_form(end0, end1, w: float) -> float:
    return w * analytic._root_mean(engine._falling_root(*end0), engine._falling_root(*end1), end0, end1)


_SMALL = st.sampled_from([0.0, 1e-300, 1e-16, 1e-12, 1e-8, 1e-4])
_UNIT = st.floats(0.05, 20.0)
_SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def _stretches(draw):
    """Ends ``(a, b, c)`` of a stretch built at unit scale from the root
    ``x`` and the force's slope ``-s < 0`` there at each end, with ``a``
    of one sign, then scaled by ``2**m`` in velocity, ``2**j`` in force
    and ``2**n`` in time.  ``a``, ``b`` or the root's motion over the
    stretch (the rate ``Q`` of the force at the root) may nearly vanish.
    The root stays simple, ``s`` at least 1e-3 of ``|b| + |2 a x|``: near a
    double root ``engine._falling_root`` itself loses half its digits, and
    QUADPACK integrates that noise."""
    x0 = draw(_SIGN) * draw(_UNIT)
    move = draw(st.one_of(_SMALL, st.floats(-1.0, 1.0)))
    x1 = x0 * (1.0 + move) if draw(st.booleans()) else x0 + move * draw(_UNIT)
    sign = draw(_SIGN)
    ends = []
    for x in (x0, x1):
        a = sign * draw(st.one_of(_SMALL, _UNIT))
        if draw(st.booleans()):  # b nearly vanishes: s is -2 a x, nudged
            b = draw(_SIGN) * draw(_SMALL)
            s = -(2.0 * a * x + b)
        else:
            s = draw(st.one_of(_UNIT, st.just(1e-3)))
            b = -2.0 * a * x - s
        assume(s >= 1e-3 * (abs(b) + abs(2.0 * a * x)))
        ends.append((a, b, -(a * x + b) * x))
    # a root on the whole stretch: the discriminant, quadratic in t, stays positive
    (a0, b0, c0), (a1, b1, c1) = ends
    da, db, dc = a1 - a0, b1 - b0, c1 - c0
    d2, d1, d0 = db * db - 4.0 * da * dc, 2.0 * b0 * db - 4.0 * (a0 * dc + da * c0), b0 * b0 - 4.0 * a0 * c0
    low = min(d0, d0 + d1 + d2)
    if d2 > 0.0 and 0.0 < -d1 / (2.0 * d2) < 1.0:
        low = min(low, d0 - d1 * d1 / (4.0 * d2))
    assume(low > 1e-9 * max(d0, d0 + d1 + d2))
    m, j, n = (draw(st.integers(-300, 300)) for _ in range(3))
    scaled = [(math.ldexp(a, j - 2 * m), math.ldexp(b, j - m), math.ldexp(c, j)) for a, b, c in ends]
    return scaled[0], scaled[1], math.ldexp(1.0, n)


@settings(max_examples=300, deadline=None)
@given(_stretches())
def test_closed_form_matches_quadrature_at_every_scale(stretch):
    end0, end1, w = stretch
    got = _closed_form(end0, end1, w)
    coefficients = _lerp(end0, end1, w)
    ref = _quad(lambda t: engine._falling_root(*coefficients(t)), 0.0, w)
    xa, xb = engine._falling_root(*end0), engine._falling_root(*end1)
    # relative to the stretch's own scale, as the engine checks its roots
    assert abs(got - ref) <= engine._CYCLE_TOL * w * max(abs(xa), abs(xb)), (got, ref)


@pytest.mark.parametrize(
    "end0, end1, exact",
    [
        # -(x - 1)(x - 2 + 2t): the root runs 2 -> 1 down to the double root
        # at t = 1/2 and stays at 1, which every time's force keeps
        ((-1.0, 3.0, -2.0), (-1.0, 1.0, 0.0), 1.25),
        ((-1.0, 1.0, 0.0), (-1.0, 3.0, -2.0), 1.25),
        ((-1.0, 2.5, -1.5), (-1.0, 1.5, -0.5), 1.125),
    ],
)
def test_a_root_that_joins_a_fixed_root_is_integrated_through_the_kink(end0, end1, exact):
    assert _closed_form(end0, end1, 1.0) == pytest.approx(exact, rel=1e-15)


class TestLinearRoots:
    """``a`` zero at both ends: the root is ``-c/b``, and ``_root_mean``
    keeps the closed form the engine used before it took quadratic roots."""

    @staticmethod
    def _quadrature(c0, c1, b0, b1) -> float:
        """QK15 panels on ``[0, 1]``, graded geometrically toward the end
        where ``|b|`` is smaller, where a nearby pole would fool the error
        estimate of a panel that spans it; ``s`` is the distance from that
        end, so that ``b`` is evaluated without cancellation."""
        if abs(b0) < abs(b1):
            c0, c1, b0, b1 = c1, c0, b1, b0

        def f(s):
            return -(c1 + s * (c0 - c1)) / (b1 + s * (b0 - b1)), None

        cuts = [0.0] + [2.0**-j for j in range(47, -1, -1)]
        return sum(analytic.adaptive_gauss(f, a, b, 1e-13) for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("u", [3e-5, -3e-5, 1e-9, -7e-12])
    def test_series_branch_matches_quadrature(self, u):
        c0, c1, b0, b1 = 0.7, -0.4, -1.3, -1.3 * (1.0 + u)
        mean = analytic._root_mean(-c0 / b0, -c1 / b1, (0.0, b0, c0), (0.0, b1, c1))
        assert abs(mean - self._quadrature(c0, c1, b0, b1)) <= 1e-15

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_pole_just_outside_either_end(self, gap):
        # c = -1 and b = 0 a fraction ``gap`` of the interval beyond its
        # end, then before its start: the mean of 1/b is -log(1 + 1/gap)
        exact = -math.log1p(1.0 / gap)
        for b0, b1 in ((-(1.0 + gap), -gap), (-gap, -(1.0 + gap))):
            mean = analytic._root_mean(1.0 / b0, 1.0 / b1, (0.0, b0, -1.0), (0.0, b1, -1.0))
            assert mean == pytest.approx(exact, rel=1e-15)
            assert self._quadrature(-1.0, -1.0, b0, b1) == pytest.approx(exact, rel=1e-13)


def _root_stretches(law, gait):
    """``(coefficients, ta, tb)`` of every stretch of a gap root that is not
    linear, on each stage of a constant-rate gait."""
    for t0, t1, p0, p1 in gait._stages():
        model = balance._AffineStage(law, t0, t1, p0, p1)
        if model.conds is None:
            continue
        for ta, tb, found in model.stretches():
            if found is None or found[0] != "root":
                continue
            coefficients = model.gap(int(found[1]))
            if coefficients(ta)[0] != 0.0 or coefficients(tb)[0] != 0.0:
                yield coefficients, ta, tb


def test_benchmark_stretches_agree_with_both_quadratures():
    # every stretch of seeds 1-40 that adaptive_gauss integrated before:
    # the closed form against that value and against QUADPACK
    seen = 0
    for stream in ("cycles", "trajectory"):
        for seed in range(1, 41):
            for cls in CONSTANT_RATE:
                law, gait = inputs.draw(seed, stream, 0, cls, dircrawl).build(dircrawl)
                for coefficients, ta, tb in _root_stretches(law, gait):
                    closed = _closed_form(coefficients(ta), coefficients(tb), tb - ta)
                    root = lambda t: engine._falling_root(*coefficients(t))  # noqa: E731
                    before = analytic.adaptive_gauss(lambda t: (root(t), None), ta, tb, engine._CYCLE_TOL)
                    ref = _quad(root, ta, tb)
                    for other in (before, ref):
                        assert abs(closed - other) <= engine._CYCLE_TOL * max(1.0, abs(other))
                    seen += 1
    assert seen == 640


def test_default_cycles_of_constant_rate_classes_take_no_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(analytic, "adaptive_gauss", lambda *args: calls.append(args[1:3]))
    for seed in range(1, 41):
        for cls in CONSTANT_RATE:
            law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
            engine.cycle_displacement(law, gait)
            assert calls == [], (seed, cls)


def test_a_body_vanishing_next_to_a_pole_integrates_stage_by_stage():
    # the last stage (1 ms) shrinks the body from 553 to 2 while the root
    # climbs towards a pole just past the stage end; adaptive_gauss did not
    # settle there and the cycle raised DegenerateSubstrateError
    law = FrictionLaw(0, 0, 1, 0.99999)
    gait = TwoSegmentPath(
        1.0, 0.5, (0, 552, 1108, 1819, 2585, 3466, 4095, 4096, 4096.001),
        (1, 1, 1, 1, 1, 1, 417, 417, 1), (1, 1, 1, 1, 1, 1, 136, 136, 1),
    )
    report = engine.cycle_displacement(law, gait)
    spans = analytic._corner_spans(gait.corner_times(), gait.period)

    def velocity(t: float) -> float:
        return balance._solve(law, *gait._pieces_at(t))[0]

    for (_, value), (t0, t1) in zip(report.contributions, spans, strict=True):
        ref = _quad(velocity, t0, t1)
        assert abs(value - ref) <= engine._CYCLE_TOL * max(1.0, abs(ref)), (t0, value, ref)
    assert report.contributions[-1][1] == pytest.approx(276.93430362095739135, rel=1e-15)
