"""The midpoint kernel on the branch edges that random times rarely reach.

``midpoint.sample`` picks each wave row's nodes from presence masks, and
``midpoint.solve_velocity_batch`` builds the gap polynomial on one gap per
row; both must still agree with the scalar ``shape_at``/``rate_at`` and
``balance.solve_velocity`` bit for bit.  The cases here sit where those
shortcuts switch: stage boundaries and their float neighbours, waves just
wide enough to be accepted, blocks with one breakpoint, and rows whose
force brackets a root on more than one gap.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dircrawl import balance, midpoint
from dircrawl.balance import REGIMES, solve_velocity
from dircrawl.body import Breather, PiecewiseAffineShape, ShapeRate, SquareWave, TwoSegmentPath
from dircrawl.friction import FrictionLaw

_LAWS = [
    FrictionLaw(0.75, 0.25, 0.0, 0.0),
    FrictionLaw(0.0, 0.0, 1.0, 0.4),
    FrictionLaw(1.0, 0.5, 1.0, 0.5),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _narrowest(L: float, e: float) -> float:
    """The narrowest width ``SquareWave`` accepts at length ``L`` and amplitude ``e``."""
    d = math.ulp(L) / min(1.0, 1.0 + e)
    while not min(1.0, 1.0 + e) * d > math.ulp(L):
        d = math.nextafter(d, math.inf)
    return d


def _edge_waves() -> list[SquareWave]:
    waves = []
    for e in (0.5, -0.5, 0.9, -0.9):
        waves.append(SquareWave(1.0, 0.3, e, 0.7))
        waves.append(SquareWave(3.0, 1.7, e, 2.5))
        for L in (1.0, 3.0):
            d = _narrowest(L, e)
            waves += [SquareWave(L, d, e, 1.0), SquareWave(L, math.nextafter(d, math.inf), e, 0.7)]
    return waves


def _edge_times(gait: SquareWave) -> list[float]:
    L, d, c = gait.ref_length, gait.delta, gait.speed
    times = []
    for t in (0.0, d / c, L / c, (L + d) / c, gait.period):
        times += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return [t for t in times if t >= 0.0]


def test_wave_sampler_equals_shape_at_and_rate_at_on_branch_edges():
    pieces_seen = set()
    for gait in _edge_waves():
        times = _edge_times(gait)
        arcs, rates = midpoint.sample(gait, times)
        for i, t in enumerate(times):
            shape, rate = gait.shape_at(t), gait.rate_at(t)
            p = len(shape.arc) - 1
            pieces_seen.add(p)
            assert arcs[i, : p + 1].tobytes() == _bits(shape.arc), (gait, t)
            assert arcs[i, p + 1 :].tobytes() == _bits([shape.length] * (3 - p)), (gait, t)
            assert rates[i, :p].tobytes() == _bits(rate.seg_rates), (gait, t)
            assert rates[i, p:].tobytes() == _bits([rate.seg_rates[-1]] * (3 - p)), (gait, t)
    assert pieces_seen == {1, 2, 3}


@pytest.mark.parametrize("law", _LAWS)
def test_batched_solver_on_wave_branch_edges(law):
    for gait in _edge_waves():
        times = _edge_times(gait)
        x1dot, regime, residual = midpoint.solve_velocity_batch(law, *midpoint.sample(gait, times))
        for i, t in enumerate(times):
            sol = solve_velocity(law, gait.shape_at(t), gait.rate_at(t))
            assert _bits([x1dot[i], residual[i]]) == _bits([sol.x1dot, sol.residual]), (gait, t)
            assert REGIMES[regime[i]] == sol.regime, (gait, t)


def _assert_rows_equal_scalar(law, arcs, rates):
    got = midpoint.solve_velocity_batch(law, arcs, rates)
    for i in range(len(arcs)):
        nodes = tuple(arcs[i].tolist())
        sol = solve_velocity(
            law,
            PiecewiseAffineShape(nodes, nodes),
            ShapeRate(nodes, tuple(map(tuple, rates[i].tolist()))),
        )
        assert _bits([got[0][i], got[2][i]]) == _bits([sol.x1dot, sol.residual]), (law, i)
        assert REGIMES[got[1][i]] == sol.regime, (law, i)
    return got


@pytest.mark.parametrize("law", _LAWS)
def test_blocks_with_a_single_breakpoint(monkeypatch, law):
    # Every rate of every row equal: one breakpoint and no gap to build a
    # polynomial on.
    gaps = []
    poly_roots_rows = midpoint._poly_roots_rows
    monkeypatch.setattr(
        midpoint,
        "_poly_roots_rows",
        lambda a, b, c, lo, hi: gaps.append(len(lo)) or poly_roots_rows(a, b, c, lo, hi),
    )
    still = Breather(1.0, 0.0, 1.0)
    arcs, rates = midpoint.sample(still, np.arange(16) / 16)
    _, regime, _ = _assert_rows_equal_scalar(law, arcs, rates)
    assert set(regime.tolist()) == {REGIMES.index(balance.WHOLE_BODY_STICK)}
    # one row translating rigidly: it sticks at its one breakpoint, x1dot = -0.2
    x1dot, regime, _ = _assert_rows_equal_scalar(
        law, np.array([[0.0, 0.3, 1.0]]), np.full((1, 2, 2), 0.2)
    )
    assert x1dot.tolist() == [-0.2] and REGIMES[regime[0]] == balance.WHOLE_BODY_STICK
    assert gaps == [0, 0]


@pytest.mark.parametrize("law", _LAWS)
@pytest.mark.parametrize(
    "gait",
    [
        SquareWave(1.0, 0.3, 0.5, 1.0),
        SquareWave(1.5, 0.2, -0.4, 0.7),
        TwoSegmentPath(1.0, 0.5, (0.0, 0.4, 1.0), (0.4, 0.7, 0.4), (0.5, 0.3, 0.5)),
    ],
)
def test_rows_bracketing_on_several_gaps_go_to_the_scalar_solver(monkeypatch, law, gait):
    # Make the force bracket a root on every gap of every other row: the
    # batch builds one polynomial per row, so it must hand those rows to
    # balance.solve_velocity, which answers them as the unpatched batch does.
    times = (np.arange(48) / 24 + 0.013) * gait.period
    arcs, rates = midpoint.sample(gait, times)
    settled = midpoint.solve_velocity_batch(law, arcs, rates)
    total_force_rows = midpoint._total_force_rows
    n_gaps = []

    def every_gap_brackets(law, seg, r0, r1, x):
        f_lo, f_hi = total_force_rows(law, seg, r0, r1, x)
        if len(x) > 1:  # at the breakpoints, not at the solution
            n_gaps.append(len(x) - 1)
            f_lo[:-1, ::2] = math.inf
            f_hi[1:, ::2] = -math.inf
        return f_lo, f_hi

    fallback_rows = []
    monkeypatch.setattr(midpoint, "_total_force_rows", every_gap_brackets)
    monkeypatch.setattr(
        balance,
        "solve_velocity",
        lambda *args: fallback_rows.append(args) or solve_velocity(*args),
    )
    got = midpoint.solve_velocity_batch(law, arcs, rates)
    assert n_gaps and n_gaps[0] >= 2
    assert len(fallback_rows) == len(times) // 2
    for a, b in zip(got, settled):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
