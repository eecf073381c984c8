"""The batched midpoint kernel against the scalar path it replaced.

``engine.simulate`` and explicit-``dt`` cycles sample the gait for a block
of steps at once (``midpoint._shapes``) and solve the balance for the whole
block (``midpoint._kernel``, each row from its gait's model).  Every float
operation is the one the scalar path made, in the same order, so the
results must be equal bit for bit, not merely close:
``oracles.reference_simulate`` keeps the scalar step loop, and
``solve_velocity`` stays the oracle of each row.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dircrawl
from dircrawl import balance, engine, midpoint
from dircrawl.analytic import breather_cycle_displacement, breather_velocity
from dircrawl.balance import REGIMES, solve_velocity
from dircrawl.body import Breather, CompositeStride, ConstantLength, SquareWave, TwoSegmentPath
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw
from kernel_rows import kernel_rows, sample
from oracles import reference_simulate

pytestmark = pytest.mark.bits

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_simulate_matches_scalar_loop_bit_for_bit(cls):
    for seed in (1, 2, 3):
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        dt = gait.period / 500
        times, x1, lengths, regimes = reference_simulate(law, gait, n_periods=2, dt=dt, x0=0.25)
        traj = engine.simulate(law, gait, n_periods=2, dt=dt, x0=0.25)
        assert traj.times.tobytes() == _bits(times), seed
        assert traj.x1.tobytes() == _bits(x1), seed
        assert traj.l.tobytes() == _bits(lengths), seed
        assert traj.x2.tobytes() == (np.asarray(x1) + np.asarray(lengths)).tobytes(), seed
        assert traj.regimes == tuple(regimes), seed


def test_step_ends_need_no_profile_rate():
    # The rate has no value at its corner t = 0.5, a step end the scalar
    # loop only takes the length of; midpoints never land there.
    gait = Breather(
        1.0,
        0.5,
        1.0,
        profile=lambda t: 1.0 + 0.5 * (0.5 - abs(t - 0.5)),
        profile_rate=lambda t: 0.5 * (0.5 - t) / abs(0.5 - t),
        corners=(0.0, 0.5, 1.0),
    )
    law = FrictionLaw(0.75, 0.25, 0.0, 0.0)
    times, x1, lengths, regimes = reference_simulate(law, gait, n_periods=2, dt=0.001)
    traj = engine.simulate(law, gait, n_periods=2, dt=0.001)
    assert traj.times.tobytes() == _bits(times)
    assert traj.x1.tobytes() == _bits(x1)
    assert traj.l.tobytes() == _bits(lengths)
    assert traj.regimes == tuple(regimes)
    assert traj.net_displacement == 0.25


def test_explicit_dt_cycle_matches_scalar_loop_bit_for_bit():
    for cls in inputs.CLASSES:
        law, gait = inputs.draw(4, "trajectory", 0, cls, dircrawl).build(dircrawl)
        dt = gait.period / 300
        _, x1, _, regimes = reference_simulate(law, gait, n_periods=1, dt=dt)
        rep = engine.cycle_displacement(law, gait, dt=dt)
        assert _bits([rep.net_displacement]) == _bits([x1[-1]]), cls
        assert list(rep.meta["regime_counts"].items()) == list(_counts(regimes).items()), cls


def _counts(regimes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in regimes:
        counts[r] = counts.get(r, 0) + 1
    return counts


# -- the kernel's rows against the scalar solver ------------------------------

_param = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
laws = st.tuples(_param, _param, _param, _param).filter(any).map(lambda p: FrictionLaw(*p))


@st.composite
def gaits(draw):
    """Every gait family; some edges hold a segment, or the whole body, still."""
    kind = draw(st.sampled_from(["breather", "constant_length", "two_segment", "stride", "wave"]))
    u = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    if kind == "breather":
        return Breather(u(0.5, 2.0), u(-0.45, 1.5), u(0.5, 2.0))
    if kind == "constant_length":
        return ConstantLength(1.0, u(0.2, 0.8), u(0.2, 0.5), u(-0.15, 0.4), u(0.5, 2.0))
    if kind == "two_segment":
        l1, l2 = u(0.2, 1.0), u(0.2, 1.0)
        l1b = draw(st.sampled_from([l1, l1 + 0.3]))
        l2b = draw(st.sampled_from([l2, l2 + 0.2]))
        return TwoSegmentPath(1.0, 0.5, (0.0, u(0.1, 0.9), 1.0), (l1, l1b, l1), (l2, l2b, l2))
    if kind == "stride":
        return CompositeStride(u(0.2, 1.0), u(0.1, 1.0), u(1.2, 3.0))
    L = u(0.5, 2.0)
    eps = draw(st.sampled_from([-1.0, 1.0])) * u(0.1, 0.9)
    return SquareWave(L, u(0.05, 0.95) * L, eps, u(0.3, 3.0))


@settings(max_examples=300)
@given(law=laws, gait=gaits(), fractions=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12))
def test_batched_solver_equals_scalar_solver_exactly(law, gait, fractions):
    # random times plus every corner time, where rates vanish or jump
    corners = [c + p * gait.period for c in gait.corner_times() for p in (0, 1)]
    times = [f * gait.period for f in fractions] + corners
    arcs, rates = sample(gait, times)
    for i, t in enumerate(times):
        shape, rate = gait.shape_at(t), gait.rate_at(t)
        p = len(shape.arc) - 1
        assert arcs[i, : p + 1].tolist() == list(shape.arc)
        assert (arcs[i, p + 1 :] == shape.length).all()
        assert [tuple(pair) for pair in rates[i, :p].tolist()] == list(rate.seg_rates)
    # the kernel's rows: every target time, and one between each two
    mids = 0.5 * (np.repeat(times, 2)[:-1] + np.repeat(times, 2)[1:])
    expected = []
    for t in mids.tolist():
        try:
            expected.append(solve_velocity(law, gait.shape_at(t), gait.rate_at(t)))
        except DegenerateSubstrateError:
            expected.append(None)
    if None in expected:
        with pytest.raises(DegenerateSubstrateError):
            midpoint._kernel(law, gait, np.repeat(times, 2), None)
        return
    _, x1dot, regime, residual, _ = kernel_rows(law, gait, times)
    for i, sol in enumerate(expected):
        assert x1dot[i] == sol.x1dot, (mids[i], x1dot[i], sol)
        assert REGIMES[regime[i]] == sol.regime, (mids[i], sol)
        assert residual[i] == sol.residual, (mids[i], residual[i], sol)


def test_benchmark_rows_settle_without_the_scalar_solver(monkeypatch):
    # The scalar fallback returns correct rows whatever the batched search
    # missed, so only its call count shows that search going wrong.
    fallback_rows, solve = [], balance._solve
    monkeypatch.setattr(balance, "_solve", lambda *args: fallback_rows.append(args) or solve(*args))
    for cls in inputs.CLASSES:
        law, gait = inputs.draw(2, "trajectory", 0, cls, dircrawl).build(dircrawl)
        engine.simulate(law, gait, n_periods=2, dt=gait.period / 500)
    engine.simulate(FrictionLaw(0.75, 0.25, 0.0, 0.0), _THREE_REGIMES, dt=0.005)
    assert fallback_rows == []


@pytest.mark.parametrize(
    "profile_rate",
    [
        lambda t: -2.0,
        # no value at t = 0.25, a step end before the first error, which the
        # scalar loop only takes the length of; so must the replay
        lambda t: 2.0 * abs(t - 0.25) / (0.25 - t),
    ],
    ids=["constant_rate", "rate_undefined_at_a_step_end"],
)
def test_failing_block_raises_the_scalar_loops_first_error(profile_rate):
    # the length reaches 0 at t = 0.5
    law = FrictionLaw(1.0, 0.5, 1.0, 0.5)
    gait = Breather(
        1.0, 0.5, 1.0, profile=lambda t: 1.0 - 2.0 * t, profile_rate=profile_rate, corners=(0.0, 1.0)
    )
    with pytest.raises(ValueError) as scalar:
        reference_simulate(law, gait)
    with pytest.raises(ValueError) as batched:
        engine.simulate(law, gait)
    assert str(batched.value) == str(scalar.value)


def test_first_length_needs_no_profile_rate():
    # The rate 0.25 (1 - 2t) / sqrt(t (1 - t)) has no value at t = 0, the
    # first grid time, whose length alone the scalar loop takes.
    gait = Breather(
        1.0,
        0.0,
        1.0,
        profile=lambda t: 1.0 + 0.5 * math.sqrt(t * (1.0 - t)),
        profile_rate=lambda t: 0.25 * (1.0 - 2.0 * t) / math.sqrt(t * (1.0 - t)),
        corners=(0.0, 0.5, 1.0),
    )
    law = FrictionLaw(1.0, 0.5, 1.0, 0.5)
    times, x1, lengths, regimes = reference_simulate(law, gait, dt=0.001)
    traj = engine.simulate(law, gait, dt=0.001)
    assert traj.x1.tobytes() == _bits(x1)
    assert traj.l.tobytes() == _bits(lengths)
    assert traj.regimes == tuple(regimes)


# -- typed solver failures ----------------------------------------------------

_MIXED = FrictionLaw(1.0, 0.5, 1.0, 0.5)


@pytest.mark.parametrize(
    "gait, t",
    [
        # rate 9.2e-301: the best candidate, x1dot = 0.0, leaves a residual of 0.52
        (Breather(ref_length=1.0, delta=0.5, period=1e300), 1e299),
        # the force scale overflows: x1dot = 0.0 leaves an infinite residual
        (Breather(ref_length=1e200, delta=1e199, period=1.0), 0.1),
    ],
)
def test_unresolvable_balance_raises_typed_error(gait, t):
    with pytest.raises(DegenerateSubstrateError):
        solve_velocity(_MIXED, gait.shape_at(t), gait.rate_at(t))
    with pytest.raises(DegenerateSubstrateError):
        midpoint._kernel(_MIXED, gait, np.repeat([0.5 * gait.period, t], 2), None)
    with pytest.raises(DegenerateSubstrateError, match="at t = "):
        engine.simulate(_MIXED, gait)
    with pytest.raises(DegenerateSubstrateError):
        engine.cycle_displacement(_MIXED, gait, dt=gait.period / 100)
    with pytest.raises(DegenerateSubstrateError):
        engine.cycle_displacement(_MIXED, gait)


@pytest.mark.parametrize("period", [1e-300, 1e-307])
def test_rates_near_the_top_of_the_double_range_resolve(period):
    # rates ~1e300 to ~1e307: the crossing piece's squared rates overflowed,
    # so its gap polynomial had no root in floating point and every entry
    # point raised; formed at unit scale they solve to the closed form
    gait, t = Breather(ref_length=1.0, delta=0.5, period=period), 0.1 * period
    closed = breather_velocity(_MIXED, gait.length_rate_at(t))
    assert solve_velocity(_MIXED, gait.shape_at(t), gait.rate_at(t)).x1dot == pytest.approx(closed, rel=1e-14)
    assert np.all(np.isfinite(midpoint._kernel(_MIXED, gait, np.repeat([0.5 * period, t], 2), None)[0]))
    cycle = breather_cycle_displacement(_MIXED, gait._value, gait._rate, gait.period, corners=gait.corner_times())
    assert engine.cycle_displacement(_MIXED, gait).net_displacement == pytest.approx(cycle, rel=1e-9)
    assert engine.simulate(_MIXED, gait).net_displacement == pytest.approx(cycle, rel=1e-4)


# -- observability -------------------------------------------------------------


# A path that stick-slips first, then slides, then holds still: the regime
# codes occur out of order.
_THREE_REGIMES = TwoSegmentPath(
    1.0, 0.5, (0.0, 0.2, 0.4, 0.7, 1.0), (0.4, 0.4, 0.6, 0.6, 0.4), (0.5, 0.6, 0.6, 0.6, 0.5)
)


@pytest.mark.parametrize(
    "law, gait",
    [
        inputs.draw(9, "trajectory", 0, "breather/mixed", dircrawl).build(dircrawl),
        inputs.draw(9, "trajectory", 0, "sliding_wave/mixed", dircrawl).build(dircrawl),
        (FrictionLaw(0.75, 0.25, 0.0, 0.0), _THREE_REGIMES),
        (FrictionLaw(1.0, 0.5, 1.0, 0.5), _THREE_REGIMES),
    ],
)
def test_simulate_reports_regime_counts_and_residual_max(law, gait):
    traj = engine.simulate(law, gait, n_periods=2, dt=gait.period / 200)
    counts = traj.meta["regime_counts"]
    assert sum(counts.values()) == len(traj.regimes)
    # the same counts, keyed in order of first occurrence
    assert list(counts.items()) == list(_counts(traj.regimes).items())
    mids = 0.5 * (traj.times[:-1] + traj.times[1:])
    solves = [solve_velocity(law, gait.shape_at(t), gait.rate_at(t)) for t in mids.tolist()]
    assert traj.meta["residual_max"] == max(sol.residual for sol in solves)


# -- the scalar fallback ------------------------------------------------------


@pytest.mark.parametrize(
    "gait",
    [
        SquareWave(1.0, 0.3, 0.5, 1.0),  # rows of one, two and three pieces
        Breather(1.0, 0.5, 1.0),
        _THREE_REGIMES,
    ],
)
def test_rows_the_batch_cannot_settle_fall_back_to_the_scalar_solver(monkeypatch, gait):
    # Report two roots, the first of them 0.0, for every row on a gap root:
    # the kernel's own answer for it is then wrong, and only
    # balance._solve can give back the rows it settles unpatched.
    times = (np.arange(64) / 32 + 0.013) * gait.period
    laws = [
        FrictionLaw(0.75, 0.25, 0.0, 0.0),
        FrictionLaw(0.0, 0.0, 1.0, 0.4),
        FrictionLaw(1.0, 0.5, 1.0, 0.5),
    ]
    settled = [kernel_rows(law, gait, times)[1:4] for law in laws]
    poly_roots_rows = midpoint._poly_roots_rows

    def two_roots(*args):
        first, n_roots = poly_roots_rows(*args)
        return np.zeros_like(first), np.full_like(n_roots, 2)

    fallback_pieces, solve = [], balance._solve
    monkeypatch.setattr(midpoint, "_poly_roots_rows", two_roots)
    monkeypatch.setattr(
        balance,
        "_solve",
        lambda law, pieces, l_total: fallback_pieces.append(len(pieces))
        or solve(law, pieces, l_total),
    )
    for law, expected in zip(laws, settled):
        got = kernel_rows(law, gait, times)[1:4]
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), law
    assert fallback_pieces
    if isinstance(gait, SquareWave):
        assert {2, 3} <= set(fallback_pieces)  # padded rows reach it unpadded
