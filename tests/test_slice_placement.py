"""Constant-rate midpoint rows placed one stage slice at a time.

``midpoint._KnownRows`` finds each stage's rows as one slice of the block,
by one search of the stage starts, and checks them against the stage's
model with the model's own numbers.  The per-row rule it replaced, kept
verbatim as ``oracles.ReferenceKnownRows``, looked each row's stage up and
gathered the stage's numbers, padded to the longest stage.  On rows in time
order, as the kernel's blocks come, both rules must place the same rows in
the same stages.  On rows in any other order the slice rule may place
fewer, never a row the per-row rule leaves unplaced, and every row must
still be ``balance.solve_velocity``'s bit for bit.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import dircrawl
import oracles
from dircrawl import balance, midpoint
from dircrawl.body import TwoSegmentPath
from dircrawl.friction import FrictionLaw
from kernel_rows import assert_rows_match_solve_velocity, kernel_rows
from test_known_rows import _PATH, CONSTANT_RATE, _near, _switch_times, inputs
from test_midpoint_edges import _LAWS, _edge_waves

pytestmark = pytest.mark.bits

# The switch-time targets of tests/test_known_rows.py: a stage 1e-11 long
# late in the period, and a held stage under a Newtonian law.
_SHORT_STAGE = (
    FrictionLaw(2.0, 0.0, 1.25, 1.0),
    TwoSegmentPath(
        1.0, 0.5, (0.0, 7.0, 7.00000000001, 14.0), (1.3, 1.3, 1.6, 1.3), (1.7, 1.7, 0.66, 1.7)
    ),
)
_HELD_STAGE = (
    FrictionLaw(0.0, 0.0, 1.0, 3.0),
    TwoSegmentPath(1.0, 0.5, (0.0, 0.3, 0.5, 1.0), (0.4, 0.7, 0.7, 0.4), (0.5, 0.3, 0.3, 0.5)),
)


def _switch_cases() -> list[tuple]:
    """(law, gait, targets) of every switch-time set of tests/test_known_rows.py."""
    cases = [(law, g, _switch_times(law, g)) for law in _LAWS for g in [*_edge_waves(), _PATH]]
    cases.append((*_SHORT_STAGE, _switch_times(*_SHORT_STAGE)))
    cases.append((*_HELD_STAGE, np.arange(64) / 64))
    return cases


def _grid_mids(targets) -> np.ndarray:
    """The row times of ``kernel_rows``'s grid on ``targets``."""
    times = np.repeat(np.asarray(targets, dtype=float), 2)
    return 0.5 * (times[:-1] + times[1:])


def _sampled(law, gait, mids) -> tuple:
    """The stage models of ``gait`` and the block of rows at ``mids``, as
    the kernel hands them to a row source: ``(models, tm, arcs, rates)``."""
    tm = np.remainder(mids, gait.period)
    arcs, rates = midpoint._shapes(gait, mids, tm)
    return [balance._AffineStage(law, *stage) for stage in gait._stages()], tm, arcs, rates()


def _placed(rule, module, law, block, resolve: bool = False):
    """Each row's stage under ``rule`` (-1 where it places none), read from
    the signs it hands ``module._resolve``; with ``resolve``, also the
    rows' ``x1dot``, regime codes and residuals."""
    models, *rows = block
    seen, real = [], midpoint._resolve

    def spy(law, rows, signs, answer):
        seen.append(signs[0].copy())
        return real(law, rows, signs, answer) if resolve else None

    with mock.patch.object(module, "_resolve", spy):
        out = rule(law, models).solve(*rows)
    return seen[0], out


def _both(law, gait, mids, resolve: bool = False, block=None):
    block = block or _sampled(law, gait, mids)
    new = _placed(midpoint._KnownRows, midpoint, law, block, resolve)
    old = _placed(oracles.ReferenceKnownRows, oracles, law, block, resolve)
    return new, old


@pytest.mark.parametrize("cls", CONSTANT_RATE)
def test_kernel_blocks_place_the_rows_the_per_row_rule_places(cls):
    placed = 0
    for seed in range(1, 11):
        law, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        for div in (2000, 777, 5000):
            times, _ = midpoint._stage_grid(gait, gait.period / div)
            for i0 in range(0, len(times) - 1, midpoint._BLOCK):
                grid = times[i0 : i0 + midpoint._BLOCK + 1]  # as the kernel cuts its blocks
                (new, _), (old, _) = _both(law, gait, 0.5 * (grid[:-1] + grid[1:]))
                assert new.tobytes() == old.tobytes(), (seed, div, i0)
                placed += int((new >= 0).sum())
    assert placed > 0


def test_switch_time_rows_are_placed_and_answered_as_the_per_row_rule_does():
    for law, gait, targets in _switch_cases():
        (new, out_new), (old, out_old) = _both(law, gait, _grid_mids(targets), resolve=True)
        assert new.tobytes() == old.tobytes(), (law, gait)
        for a, b in zip(out_new, out_old):
            assert a.tobytes() == b.tobytes(), (law, gait)


def _out_of_order_cases() -> list[tuple]:
    """Switch-time targets shuffled, and shifted by whole periods so that
    the block wraps past the period end, on a few edge gaits and the
    benchmark's constant-rate classes."""
    rng = np.random.default_rng(34)
    cases = [c for c in _switch_cases() if isinstance(c[1], TwoSegmentPath)]
    cases += [(law, g, _switch_times(law, g)) for law in _LAWS for g in _edge_waves()[:2]]
    for cls in CONSTANT_RATE:
        law, gait = inputs.draw(1, "trajectory", 0, cls, dircrawl).build(dircrawl)
        cases.append((law, gait, _switch_times(law, gait)))
    out = []
    for law, gait, targets in cases:
        targets = np.asarray(targets, dtype=float)
        out.append((law, gait, rng.permutation(targets)))
        # a wrapped block: the period's second half, then its first half a period on
        half = len(targets) // 2
        out.append((law, gait, np.concatenate([targets[half:], targets[:half] + gait.period])))
    return out


def test_rows_out_of_time_order_are_placed_only_where_the_per_row_rule_places_them():
    lost = 0
    for law, gait, targets in _out_of_order_cases():
        assert_rows_match_solve_velocity(law, gait, targets)
        mids = kernel_rows(law, gait, targets)[0]
        (new, _), (old, _) = _both(law, gait, mids)
        mine = new >= 0
        assert (new[mine] == old[mine]).all(), (law, gait)
        lost += int((old >= 0).sum() - mine.sum())
    # out of order, whole slices of rows fall outside their stage
    assert lost > 0


def _margin_times(law, gait) -> list[float]:
    """Times where a candidate function a row checks is 0.5, 1 or 2 times
    the margin from zero, on either side, and their float neighbours."""
    times = set()
    for stage in gait._stages():
        m = balance._AffineStage(law, *stage)
        for a, b in zip(*m.conds) if m.conds is not None else ():
            for c in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
                th = (c * balance._MARGIN * m.atol - a) / (b - a) if b != a else -1.0
                if 0.0 < th < 1.0:
                    times.update(_near(m.t0 + th * m.w, 2))
    return sorted(times)


def test_rows_at_the_margin_are_placed_and_answered_as_the_per_row_rule_does():
    # Rows a few hundred floats from a switch time, where a function is
    # within a few margins of zero: the margin test decides them.
    near_margin = 0
    for law, gait, _ in _switch_cases():
        targets = _margin_times(law, gait)
        (new, out_new), (old, out_old) = _both(law, gait, _grid_mids(targets), resolve=True)
        assert new.tobytes() == old.tobytes(), (law, gait)
        for a, b in zip(out_new, out_old):
            assert a.tobytes() == b.tobytes(), (law, gait)
        near_margin += len(targets)
    assert near_margin > 1000


def test_a_row_with_a_rate_its_stage_lacks_is_not_placed():
    law = _LAWS[2]
    mids = (np.arange(64) + 0.5) / 64
    models, tm, arcs, rates = _sampled(law, _PATH, mids)
    # the second piece's start rate off the stage's: the row keeps every
    # rate of the stage, the first piece's end rate among them
    rates[::5, 1, 0] += 1.0
    (new, _), (old, _) = _both(law, _PATH, mids, block=(models, tm, arcs, rates))
    assert new.tobytes() == old.tobytes()
    assert (old[::5] == -1).all() and (np.delete(old, np.s_[::5]) >= 0).all()


def test_a_candidate_function_that_is_not_finite_places_no_row():
    # The per-row rule clamped an infinite change to the largest float and
    # could place rows on it; the slice rule places none where a function
    # it checks is not finite.
    law = _LAWS[2]
    mids = (np.arange(64) + 0.5) / 64
    models, tm, arcs, rates = _sampled(law, _PATH, mids)
    k = 0
    models[k].conds[0][0], models[k].conds[1][0] = -1e308, 1e308  # changes by inf over the stage
    (new, _), (old, _) = _both(law, _PATH, mids, block=(models, tm, arcs, rates))
    stage = (models[k].t0 < mids) & (mids < models[k].t1)
    assert (new[stage] == -1).all() and (old[stage] == k).any()
    assert new[~stage].tobytes() == old[~stage].tobytes()
