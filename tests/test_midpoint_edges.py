"""The midpoint kernel on the branch edges that random times rarely reach.

``midpoint._shapes`` picks each wave row's nodes from presence masks, and
the kernel's rows read their candidate functions from their gait's model;
both must still agree with the scalar ``shape_at``/``rate_at`` and
``balance.solve_velocity`` bit for bit.  The cases here sit where those
shortcuts switch: stage boundaries and their float neighbours, waves just
wide enough to be accepted, and a body at rest, which no model places.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dircrawl import balance, midpoint
from dircrawl.balance import REGIMES
from dircrawl.body import Breather, SquareWave
from dircrawl.friction import FrictionLaw
from kernel_rows import assert_rows_match_solve_velocity, kernel_rows, sample

pytestmark = pytest.mark.bits

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
        arcs, rates = sample(gait, times)
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
        assert_rows_match_solve_velocity(law, gait, _edge_times(gait))


@pytest.mark.parametrize("law", _LAWS)
def test_rows_at_rest_take_zero_without_a_polynomial(monkeypatch, law):
    # Every rate of every row is 0: one breakpoint and no gap, and no model
    # places the rows.  Each takes +0.0, the plan's answer for a body at
    # rest, with no gap polynomial and no scalar solve.
    gaps = []
    poly_roots_rows = midpoint._poly_roots_rows
    monkeypatch.setattr(
        midpoint,
        "_poly_roots_rows",
        lambda a, b, c, lo, hi: gaps.append(len(lo)) or poly_roots_rows(a, b, c, lo, hi),
    )
    still = Breather(1.0, 0.0, 1.0)
    known, total = assert_rows_match_solve_velocity(law, still, np.arange(16) / 16)
    assert known == total
    _, x, regime, _, _ = kernel_rows(law, still, np.arange(16) / 16)
    assert x.tobytes() == np.zeros(len(x)).tobytes()
    assert set(regime.tolist()) == {REGIMES.index(balance.WHOLE_BODY_STICK)}
    assert gaps == []


def test_entering_wave_whose_stretched_part_rounds_onto_the_right_end():
    # delta is one ulp below L: at this t the front is inside the body, but
    # (1 + e) * front rounds to L + e * front or above, so the row has one
    # piece, the whole body at the front's arc-length, and no rate (the
    # last branch of the entering wave).
    gait = SquareWave(5.682205470819844, 5.682205470819843, 4.786490829913283, 3.5760492140816122)
    t = 1.5889617649680816
    L, e, front = gait.ref_length, gait.epsilon, gait.speed * t
    assert t < gait.delta / gait.speed and front < L and (1.0 + e) * front >= L + e * front
    arcs, rates = sample(gait, [t])
    shape, rate = gait.shape_at(t), gait.rate_at(t)
    assert shape.ref == (0.0, L) and rate.seg_rates == ((0.0, 0.0),)
    assert arcs.tobytes() == _bits([0.0, *[shape.length] * 3])
    assert rates.tobytes() == _bits([0.0] * 6)
    for law in _LAWS:
        assert_rows_match_solve_velocity(law, gait, [t, math.nextafter(t, math.inf)])


@pytest.mark.parametrize("law", _LAWS)
@pytest.mark.parametrize(
    "gait", [SquareWave(1.0, 0.3, 0.5, 1.0), Breather(1.0, 0.5, 1.0), Breather(1.0, -0.3, 0.7)]
)
def test_runs_with_no_plan_fall_back_to_the_scalar_solver(monkeypatch, law, gait):
    # A run whose balance._settled plan is None leaves its rows to
    # balance._solve, each with the scalar's bits.
    targets = (np.arange(48) + 0.37) / 48 * gait.period  # no row at rest
    expected = kernel_rows(law, gait, targets)
    monkeypatch.setattr(balance, "_settled", lambda law, g: None)
    mids, x, regime, residual, n_scalar = kernel_rows(law, gait, targets)
    assert n_scalar == len(mids)
    for a, b in zip((x, regime, residual), expected[1:4]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert_rows_match_solve_velocity(law, gait, targets)
