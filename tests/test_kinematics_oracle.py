"""Both evaluations of the gaits' kinematics against the earlier scalar code.

``body`` writes each gait family's kinematics once, over a namespace of array
operations: the scalar path (``shape_at``, ``rate_at``, ``_pieces_at``)
evaluates it on Python floats and ``midpoint._shapes`` on a block of times.
Comparing the two would compare one function with itself, so both are held
here to the kinematics as the scalar path wrote them before, kept verbatim in
``tests/oracles.py``: the nodes, each piece's end rates, the body length, and
the times at which the shape is invalid, with the error raised there.  The
times sit where the branches switch (the wave edges of
``tests/test_midpoint_edges.py``, path vertices and their float neighbours)
and at random; the gaits are random waves, paths and strides, and bump and
custom profiles.  The block's merge of a wave's stages is checked on its own
at the end.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from dircrawl import midpoint
from dircrawl.body import (
    _ARC_ORDER,
    _REF_ORDER,
    Breather,
    CompositeStride,
    ConstantLength,
    SquareWave,
    TwoSegmentPath,
)
from kernel_rows import bits, sample
from oracles import (
    reference_bump,
    reference_bump_rate,
    reference_lengths,
    reference_locate,
    reference_nodes_and_rates,
    reference_rates,
)
from test_midpoint_edges import _edge_times, _edge_waves

pytestmark = pytest.mark.bits


def _oracle(gait, t: float):
    """``(refs, arcs, rates, error)`` at ``t`` by the verbatim copies: the
    nodes, each piece's end rates, and the node-order message the shape
    breaks first, or None."""
    if isinstance(gait, SquareWave):
        pts, rs = reference_nodes_and_rates(gait, t)
        refs, arcs, rates = [p[0] for p in pts], [p[1] for p in pts], [(r, r) for r in rs]
    elif isinstance(gait, (TwoSegmentPath, CompositeStride)):
        path = gait.as_path() if isinstance(gait, CompositeStride) else gait
        k, theta = reference_locate(path, t)
        l1, l2 = reference_lengths(path, k, theta)
        l1dot, l2dot = reference_rates(path, k)
        refs, arcs = [0.0, path.split, path.ref_length], [0.0, l1, l1 + l2]
        rates = [(0.0, l1dot), (l1dot, l1dot + l2dot)]
    else:
        tm = t % gait.period
        if gait.profile is None:
            rest = gait.ref_length if isinstance(gait, Breather) else gait.seg1_rest
            p = reference_bump(rest, gait.delta, gait.period, tm)
            pdot = reference_bump_rate(gait.delta, gait.period, tm)
        else:
            p, pdot = gait.profile(tm), gait.profile_rate(tm)
        if isinstance(gait, Breather):
            refs, arcs, rates = [0.0, gait.ref_length], [0.0, p], [(0.0, pdot)]
        else:
            refs = [0.0, gait.split, gait.ref_length]
            arcs, rates = [0.0, p, gait.ref_length], [(0.0, pdot), (pdot, 0.0)]
    error = None
    for j in range(len(refs) - 1):
        if not refs[j + 1] > refs[j]:
            error = _REF_ORDER
            break
        if not arcs[j + 1] > arcs[j]:
            error = _ARC_ORDER
            break
    return refs, arcs, rates, error


def _message(call, *args) -> str | None:
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _check(gait, times: list[float]) -> tuple[int, int]:
    """Hold the scalar and block evaluations at ``times`` to the oracle;
    returns how many times had a valid shape, and how many raised."""
    profile = isinstance(gait, (Breather, ConstantLength))
    valid = []
    for t in times:
        refs, arcs, rates, error = _oracle(gait, t)
        message = _message(gait._pieces_at, t)
        assert (message is None) == (error is None), (gait, t, message, error)
        assert _message(gait.shape_at, t) == message, (gait, t)
        if message is not None:
            if not profile:  # a profile gait names its length instead
                assert message == error, (gait, t)
            with pytest.raises(ValueError) as block_error:
                sample(gait, [t])
            assert str(block_error.value) == message, (gait, t)
        else:
            valid.append(t)
            pieces, length = gait._pieces_at(t)
            expected = [(arcs[j], arcs[j + 1], *rates[j]) for j in range(len(rates))]
            assert bits(pieces) == bits(expected), (gait, t)
            assert bits([length]) == bits([arcs[-1]]), (gait, t)
            shape = gait.shape_at(t)
            assert bits(shape.ref) + bits(shape.arc) == bits(refs) + bits(arcs), (gait, t)
        # rate_at runs no shape check
        rate = gait.rate_at(t)
        assert bits(rate.ref) == bits(refs) and bits(rate.seg_rates) == bits(rates), (gait, t)
    if valid:
        block_arcs, block_rates = sample(gait, valid)
        width = block_arcs.shape[1]
        for i, t in enumerate(valid):
            _, arcs, rates, _ = _oracle(gait, t)
            padding = width - len(arcs)
            assert block_arcs[i].tobytes() == bits(arcs + arcs[-1:] * padding), (gait, t)
            assert block_rates[i].tobytes() == bits(rates + rates[-1:] * padding), (gait, t)
    return len(valid), len(times) - len(valid)


def _neighbours(t: float) -> list[float]:
    return [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]


def test_waves_on_branch_edges():
    for gait in _edge_waves():
        _check(gait, _edge_times(gait))


@pytest.mark.parametrize("seed", range(4))
def test_random_waves(seed):
    rng = random.Random(seed)
    for _ in range(60):
        L = rng.uniform(0.2, 5.0)
        e = rng.choice([rng.uniform(-0.99, -0.01), rng.uniform(0.01, 4.0)])
        d = L * rng.choice([rng.uniform(0.01, 0.99), 1.0 - 2.0**-rng.randint(20, 52)])
        gait = SquareWave(L, d, e, rng.uniform(0.1, 5.0))
        corners = [t for c in gait.corner_times() for t in _neighbours(c) if t >= 0.0]
        _check(gait, corners + [rng.uniform(0.0, 2.0 * gait.period) for _ in range(10)])


def _random_path(rng: random.Random) -> TwoSegmentPath:
    n = rng.randint(3, 6)
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.choice([rng.uniform(0.01, 2.0), 2.0**-rng.randint(20, 45)]))
    l1 = [rng.uniform(0.1, 3.0) for _ in range(n - 1)]
    l2 = [rng.uniform(0.1, 3.0) for _ in range(n - 1)]
    return TwoSegmentPath(rng.uniform(0.5, 3.0), 0.25, tuple(times), (*l1, l1[0]), (*l2, l2[0]))


def _path_times(gait, rng: random.Random) -> list[float]:
    vertices = [t for c in gait.corner_times() for t in _neighbours(c) if t >= 0.0]
    later = [t + gait.period for t in vertices[:6]]
    return vertices + later + [rng.uniform(0.0, gait.period) for _ in range(10)]


@pytest.mark.parametrize("seed", range(4))
def test_random_paths_and_strides_at_their_vertices(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        path = _random_path(rng)
        _check(path, _path_times(path, rng))
    for _ in range(10):
        stride = CompositeStride(rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0), rng.uniform(1.1, 3.0))
        _check(stride, _path_times(stride, rng))


def test_path_whose_interpolated_l2_is_absorbed_raises_where_the_oracle_does():
    # valid at every vertex; past l1 = 2**66 the float spacing of l1 doubles,
    # so l2 is absorbed between the vertices
    path = TwoSegmentPath(1.0, 0.5, (0.0, 1.0, 2.0), (7.3e19, 1.4e20, 7.3e19), (5e3, 9e3, 5e3))
    n_valid, n_raising = _check(path, [i / 100 for i in range(200)])
    assert n_valid > 0 and n_raising > 0


@pytest.mark.parametrize("seed", range(3))
def test_bump_profiles(seed):
    rng = random.Random(200 + seed)
    for _ in range(30):
        period = rng.uniform(0.1, 5.0)
        times = [rng.uniform(0.0, 2.0 * period) for _ in range(12)]
        times += [t for c in (0.0, 0.5 * period, period) for t in _neighbours(c) if t >= 0.0]
        L = rng.uniform(0.5, 3.0)
        _check(Breather(L, rng.uniform(-0.9, 2.0) * L, period), times)
        rest = rng.uniform(0.2, 0.5) * L
        _check(ConstantLength(L, 0.5 * L, rest, rng.uniform(-0.19, 0.4) * L, period), times)


def test_custom_profiles_and_the_times_they_fail():
    times = [i / 16 for i in range(32)] + _neighbours(0.5)
    zeroing = Breather(1.0, 0.0, 1.0, lambda t: 1.0 - 2.0 * t, lambda t: -2.0, (0.0, 1.0))
    assert _check(zeroing, times)[1] > 0
    not_a_number = Breather(1.0, 0.0, 1.0, lambda t: math.nan, lambda t: 0.0, (0.0, 1.0))
    assert _check(not_a_number, times) == (0, len(times))
    leaving = ConstantLength(1.0, 0.5, 0.4, 0.0, 1.0, lambda t: 0.4 + t, lambda t: 1.0, (0.0, 1.0))
    assert _check(leaving, times)[1] > 0
    wavy = ConstantLength(
        1.0, 0.5, 0.5, 0.0, 2.0,
        lambda t: 0.5 + 0.25 * math.sin(math.pi * t), lambda t: 0.25 * math.pi * math.cos(math.pi * t),
    )
    assert _check(wavy, times) == (len(times), 0)


def test_a_custom_rate_that_is_not_a_number_raises_on_both_paths():
    gait = Breather(1.0, 0.0, 1.0, lambda t: 1.0, lambda t: math.nan, (0.0, 1.0))
    for t in (0.125, 0.5):
        message = f"profile_rate produced nan at t={t}"
        assert _message(gait._pieces_at, t) == message
        assert _message(gait.rate_at, t) == message
    with pytest.raises(ValueError, match=r"profile_rate produced nan at t=0\.125$"):
        sample(gait, [0.125, 0.5])


def test_block_cases_merge_each_element_from_its_first_branch():
    # the wave's stages reach the block through this merge; a number that
    # differs between branches, if only in its sign, is merged too
    first = np.array([True, False, False, False])
    second = np.array([True, True, False, False])
    branches = (
        lambda x: [x, 0.0],
        lambda x: [2.0 * x, 0.0],
        lambda x: [3.0 * x, -0.0],
    )
    column, zero = midpoint._XP.cases([first, second], branches, np.arange(4.0))
    assert column.tobytes() == bits([0.0, 2.0, 6.0, 9.0])
    assert zero.tobytes() == bits([0.0, 0.0, -0.0, -0.0])
    same = midpoint._XP.cases([first, second], [lambda: 0.5] * 3)
    assert type(same) is float and same == 0.5
