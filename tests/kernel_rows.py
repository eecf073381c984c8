"""Drive the midpoint kernel on chosen times, row by row.

``midpoint._kernel`` solves the balance at the midpoint of every step of a
grid.  The grid ``np.repeat(targets, 2)`` has a step from each target to
itself, whose midpoint is the target, and a step from each target to the
next, whose midpoint lies between them: every row a gait's model reads at
those times, through the path ``simulate`` takes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from dircrawl import balance, midpoint
from dircrawl.balance import REGIMES, solve_velocity


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def sample(gait, times) -> tuple[np.ndarray, np.ndarray]:
    """``midpoint._shapes`` at ``times``: the block's arcs and rates."""
    arcs, rates = midpoint._shapes(gait, np.asarray(times, dtype=float))
    return arcs, rates()


def kernel_rows(law, gait, targets):
    """``midpoint._kernel`` on the grid of ``targets``: the row midpoints,
    each row's ``x1dot``, regime code and residual, and how many rows
    reached ``balance._solve`` (whatever stands in for it), the scalar
    solver no row model settles a row without."""
    times = np.repeat(np.asarray(targets, dtype=float), 2)
    blocks, scalar_rows = [], []
    settle, scalar = midpoint._Rows.settle, balance._solve

    def spy_settle(self, *args):
        out = settle(self, *args)
        blocks.append(out)
        return out

    with mock.patch.object(midpoint._Rows, "settle", spy_settle), mock.patch.object(
        balance, "_solve", lambda *args: scalar_rows.append(args) or scalar(*args)
    ):
        x1dot, codes, residual_max = midpoint._kernel(law, gait, times, None)
    x, regime, residual = (np.concatenate(a) for a in zip(*blocks))
    assert x.tobytes() == x1dot.tobytes() and regime.tobytes() == codes.tobytes()
    assert residual_max == residual.max()
    mids = 0.5 * (times[:-1] + times[1:])  # as the kernel computes them
    return mids, x, regime, residual, len(scalar_rows)


def assert_rows_match_solve_velocity(law, gait, targets) -> tuple[int, int]:
    """Every row of :func:`kernel_rows` bit for bit as ``solve_velocity``
    gives it; returns how many rows a model answered, and how many there were."""
    mids, x, regime, residual, n_scalar = kernel_rows(law, gait, targets)
    for i, t in enumerate(mids.tolist()):
        sol = solve_velocity(law, gait.shape_at(t), gait.rate_at(t))
        assert bits([x[i], residual[i]]) == bits([sol.x1dot, sol.residual]), (law, gait, t)
        assert REGIMES[regime[i]] == sol.regime, (law, gait, t)
    return len(mids) - n_scalar, len(mids)
