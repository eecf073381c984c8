"""Midpoint rows of profile gaits against the scalar solver.

A breather's or a constant-length crawler's rates run from 0 to ``p'`` along
the body, so a row's breakpoints are ``-p'`` and ``-0.0`` and its forces
there are closed forms (``balance._profile_forces``).  ``midpoint._ProfileRows``
reads the row's candidate functions from them, places the row where each is
farther than ``balance._MARGIN`` times atol from zero, and resolves it by
the plan of its sign pattern; a row it cannot place goes to
``balance._solve`` on its pieces.  A row no model places whose every rate is 0, a
body at rest, takes +0.0, which ``balance._solve`` gives every such body
whose force scale is finite.  Every row must be ``solve_velocity``'s bit for
bit, whatever the law: zero coefficients, one-sided laws, a side within
1e-14 of zero, and ``p'`` of 0, of either infinity or NaN.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dircrawl import balance, engine, midpoint
from dircrawl.balance import REGIMES, solve_velocity
from dircrawl.body import Breather, ConstantLength, PiecewiseAffineShape, ShapeRate
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw
from kernel_rows import assert_rows_match_solve_velocity, bits, kernel_rows

pytestmark = pytest.mark.bits

# zero, within 1e-14 of zero beside the others, and ordinary coefficients
_COEF = st.one_of(st.just(0.0), st.sampled_from([1e-14, 3e-15, 1e-300]), st.floats(0.05, 5.0))
_LAW = st.tuples(_COEF, _COEF, _COEF, _COEF).filter(any).map(lambda c: FrictionLaw(*c))
_RATE = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-300, 1e300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _blocks(draw):
    """A block of breather rows ``[0, l]`` or of crawler rows ``[0, p, L]``,
    with rates ``(0, p')`` (and ``(p', 0)``); runs of equal rows included."""
    crawler = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        p, r = draw(st.floats(0.05, 0.95)), draw(_RATE)
        row = ([0.0, p, 1.0], [[0.0, r], [r, 0.0]]) if crawler else ([0.0, p], [[0.0, r]])
        rows += [row] * draw(st.integers(1, 3))
    return np.array([a for a, _ in rows]), np.array([r for _, r in rows])


@settings(max_examples=400, deadline=None)
@given(_LAW, _blocks())
@example(FrictionLaw(1.0, 1e-14, 1.0, 0.0), (np.array([[0.0, 0.5]]), np.array([[[0.0, 2.0]]])))
@example(FrictionLaw(0.0, 1.0, 0.0, 1.0), (np.array([[0.0, 0.5]]), np.array([[[0.0, -2.0]]])))
def test_profile_rows_equal_the_scalar_solver(law, block):
    arcs, rates = block
    expected = []
    for nodes, pairs in zip(arcs.tolist(), rates.tolist()):
        try:
            expected.append(
                solve_velocity(
                    law,
                    PiecewiseAffineShape(tuple(nodes), tuple(nodes)),
                    ShapeRate(tuple(nodes), tuple(map(tuple, pairs))),
                )
            )
        except DegenerateSubstrateError:
            expected.append(None)
    rows = midpoint._ProfileRows(law)
    if None in expected:
        with pytest.raises(DegenerateSubstrateError):
            rows.solve(np.zeros(len(arcs)), arcs, rates)
        return
    x, regime, residual = rows.solve(np.zeros(len(arcs)), arcs, rates)
    for i, sol in enumerate(expected):
        assert bits([x[i], residual[i]]) == bits([sol.x1dot, sol.residual]), (i, sol)
        assert REGIMES[regime[i]] == sol.regime, (i, sol)


def _neighbours(t: float, steps: int) -> list[float]:
    out, lo, hi = [t], t, t
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("mm, mp, speed", [(0.0, 0.0, 2.0), (1e-13, 0.5, 3.0)])
def test_rows_with_a_breakpoint_force_on_the_tolerance_edge(mm, mp, speed):
    # tau_minus within 30 ulps of where the force at the lower breakpoint
    # equals atol: there the closed form and a crawler's two-piece sum can
    # put lo - atol on either side of zero, and only the margin keeps such
    # a row off the closed form's plan.
    k = balance._ACCEPT_RTOL
    edge = (k * (1.0 + (mm + mp) * speed) - mm * speed * 0.5) / (1.0 - k)
    arcs = np.stack([np.zeros(64), np.linspace(0.05, 0.95, 64), np.full(64, 1.3)], axis=1)
    rates = np.zeros((64, 2, 2))
    rates[:, 0, 1] = rates[:, 1, 0] = -speed
    for tm in _neighbours(edge, 30):
        law = FrictionLaw(tm, 1.0, mm, mp)
        x, regime, residual = midpoint._ProfileRows(law).solve(np.zeros(64), arcs, rates)
        for i, nodes in enumerate(map(tuple, arcs.tolist())):
            pairs = tuple(map(tuple, rates[i].tolist()))
            sol = solve_velocity(law, PiecewiseAffineShape(nodes, nodes), ShapeRate(nodes, pairs))
            assert bits([x[i], residual[i]]) == bits([sol.x1dot, sol.residual]), (tm, i)
            assert REGIMES[regime[i]] == sol.regime, (tm, i)


def _dwell(crawler: bool, rise: float, hold: float, size: float):
    """A custom profile that rises by ``size`` over ``[0, rise]``, holds until
    ``rise + hold``, and falls back by the end of the unit period."""
    top = rise + hold

    def value(t: float) -> float:
        if t < rise:
            return size * t / rise
        return size if t < top else size * (1.0 - t) / (1.0 - top)

    def rate(t: float) -> float:
        if t < rise:
            return size / rise
        return 0.0 if t < top else -size / (1.0 - top)

    corners = (0.0, rise, top, 1.0)
    if crawler:
        return ConstantLength(
            1.0, 0.5, 0.3, 0.0, 1.0, lambda t: 0.3 + value(t), rate, corners
        )
    return Breather(1.0, 0.0, 1.0, lambda t: 1.0 + value(t), rate, corners)


@settings(max_examples=60, deadline=None)
@given(
    _LAW,
    st.booleans(),
    st.floats(0.1, 0.4),
    st.floats(0.1, 0.4),
    st.floats(-0.25, 0.5).filter(bool),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
)
def test_custom_profiles_with_dwells_match_the_scalar_solver(
    law, crawler, rise, hold, size, fractions
):
    gait = _dwell(crawler, rise, hold, size)
    targets = [*fractions, *gait.corner_times(), rise + 0.5 * hold]
    try:
        assert_rows_match_solve_velocity(law, gait, targets)
    except DegenerateSubstrateError as exc:
        # the scalar loop's error, which the kernel replays for a failing block
        assert "(at t = " in str(exc)
        return
    mids, x, _, _, _ = kernel_rows(law, gait, targets)
    held = [i for i, t in enumerate(mids.tolist()) if rise < t % 1.0 < rise + hold]
    assert held and x[held].tobytes() == np.zeros(len(held)).tobytes()


_EDGE_GAITS = [
    (FrictionLaw(0.0, 1.0, 0.0, 1.0), Breather(1.0, 0.5, 1.0)),
    (FrictionLaw(1.0, 0.0, 1.0, 0.0), ConstantLength(1.0, 0.5, 0.3, 0.2, 1.0)),
    (FrictionLaw(1.0, 1e-14, 1.0, 0.0), Breather(1.0, 0.5, 1.0)),
    (FrictionLaw(1.0, 1e-14, 1.0, 0.0), ConstantLength(1.0, 0.5, 0.3, 0.2, 1.0)),
    (FrictionLaw(2.0**-600, 2.0**-601, 1.0, 0.5), Breather(1.0, 0.5, 1.0)),
    (FrictionLaw(1.0, 0.5, 1.0, 0.5), _dwell(False, 0.25, 0.25, 0.5)),
    (FrictionLaw(0.0, 0.0, 1.0, 0.4), _dwell(True, 0.25, 0.25, -0.2)),
    (FrictionLaw(0.75, 0.25, 0.0, 0.0), _dwell(False, 0.25, 0.25, 0.5)),
]


@pytest.mark.parametrize("law, gait", _EDGE_GAITS)
def test_edge_profile_gaits_send_no_row_to_the_scalar_solver(monkeypatch, law, gait):
    scalar_rows, solve = [], balance._solve
    monkeypatch.setattr(balance, "_solve", lambda *args: scalar_rows.append(args) or solve(*args))
    engine.simulate(law, gait, n_periods=2)
    assert scalar_rows == []


# -- the rest rule ---------------------------------------------------------------

_REST_COEF = st.one_of(st.just(0.0), st.sampled_from([1e-300, 1e-14, 1e300]), st.floats(0.05, 5.0))
_LENGTH = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308]), st.floats(1e-3, 1e3))


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(_REST_COEF, _REST_COEF, _REST_COEF, _REST_COEF).filter(any),
    st.lists(st.tuples(_LENGTH, st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0])),
             min_size=1, max_size=4),
)
def test_every_body_at_rest_solves_to_plus_zero(coefs, layout):
    # The midpoint rows give +0.0 to every row no model places whose every
    # rate is 0: balance._solve must give it too, or raise, and only where
    # the force scale is not finite.
    law = FrictionLaw(*coefs)
    pieces, s0 = [], 0.0
    for length, r0, r1 in layout:
        pieces.append((s0, s0 + length, r0, r1))
        s0 += length
    if not all(p[1] > p[0] for p in pieces):
        return  # lengths absorbed by a huge arc-length: no valid shape
    fscale = balance._breaks_and_scales(law, pieces, s0)[2]
    try:
        x, regime, residual, _, _ = balance._solve(law, pieces, s0)
    except DegenerateSubstrateError:
        assert not math.isfinite(fscale), (law, pieces)
        return
    assert (x, math.copysign(1.0, x), regime, residual) == (0.0, 1.0, balance.WHOLE_BODY_STICK, 0.0)
