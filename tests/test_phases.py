"""The midpoint grid's phase rule, bit for bit against ``np.remainder``.

``midpoint._phases(times, period)`` reads each time's phase as ``t + 0.0``
below the period and ``t - period`` from it on, where every time lies in
``[0, 2 * period)``, and calls ``np.remainder`` otherwise.  Both forms must
give ``np.remainder``'s bits, signed zeros included, at any period a float
can hold.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from dircrawl import midpoint

pytestmark = pytest.mark.bits

# the largest float's double overflows: no time reaches 2p, but t - p stays exact
_PERIODS = (1.0, 0.3, 2.0**-1000, 2.0**1000, 5e-324, sys.float_info.max)


def _assert_remainder_bits(times, period: float) -> None:
    times = np.asarray(times, dtype=float)
    with np.errstate(invalid="ignore"):  # np.remainder of an infinite time is NaN
        got, want = midpoint._phases(times, period), np.remainder(times, period)
    assert got.tobytes() == want.tobytes()


def _edges(p: float) -> list[float]:
    return [0.0, -0.0, np.nextafter(p, 0.0), p, np.nextafter(2.0 * p, 0.0), 1e-300]


@pytest.mark.parametrize("period", _PERIODS)
def test_edge_times_take_remainder_bits(period):
    edges = _edges(period)
    _assert_remainder_bits(edges, period)
    for t in edges:
        _assert_remainder_bits([t], period)


def test_random_periods_and_times_take_remainder_bits():
    rng = np.random.default_rng(36)
    for exponent in rng.uniform(-1000.0, 1000.0, 200):
        period = float(rng.uniform(1.0, 2.0) * 2.0**exponent)
        # spread over [0, 2p): every bit pattern of the fraction, and both halves
        times = period * rng.uniform(0.0, 2.0, 64)
        _assert_remainder_bits(times, period)
        _assert_remainder_bits(np.sort(times), period)


@pytest.mark.parametrize("period", _PERIODS[:4])
@pytest.mark.parametrize(
    "extra",
    [-1.0, -0.5, np.nan, np.inf, -np.inf, 2.0, 2.5, 7.0],
    ids=["negative", "negative-half", "nan", "inf", "-inf", "2p", "2.5p", "7p"],
)
def test_times_outside_the_first_two_periods_fall_back(period, extra):
    # one such time in a block sends the whole block to np.remainder
    times = [*_edges(period)[:4], extra * period]
    _assert_remainder_bits(times, period)
