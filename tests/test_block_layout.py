"""The midpoint block's memory layout.

``midpoint._shapes`` writes a block pieces first, one contiguous row per
node or piece end, and hands out the logical ``(n, P + 1)`` and
``(n, P, 2)`` views; ``midpoint._Rows`` reads the pieces-first memory back
through ``np.ascontiguousarray``, which then copies nothing.  A transposing
copy brought back anywhere on that path fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from dircrawl import midpoint
from dircrawl.body import Breather, CompositeStride, ConstantLength, SquareWave, TwoSegmentPath
from dircrawl.friction import FrictionLaw

_GAITS = [
    Breather(1.0, 0.5, 1.0),
    ConstantLength(1.0, 0.5, 0.4, 0.2, 1.0),
    TwoSegmentPath(1.0, 0.5, (0.0, 0.4, 1.0), (0.4, 0.7, 0.4), (0.5, 0.3, 0.5)),
    CompositeStride(1.0, 0.3, 1.5),
    SquareWave(1.0, 0.3, 0.5, 1.0),
]


@pytest.mark.parametrize("gait", _GAITS, ids=lambda g: type(g).__name__)
def test_rows_read_the_sampled_block_in_place(gait):
    grid = midpoint._stage_grid(gait, gait.period / 50)[0]
    mids = 0.5 * (grid[:-1] + grid[1:])
    arcs, rate_block = midpoint._shapes(gait, mids)
    rates = rate_block()
    n, n_pieces = len(mids), len(arcs[0]) - 1
    assert arcs.shape == (n, n_pieces + 1) and rates.shape == (n, n_pieces, 2)
    rows = midpoint._Rows(FrictionLaw(1.0, 0.5, 1.0, 0.5), arcs, rates)
    assert np.shares_memory(rows.s0, arcs) and np.shares_memory(rows.l_total, arcs)
    assert np.shares_memory(rows.flat, rates)
    assert all(np.shares_memory(r, rates) for r in rows.pieces[1:])
