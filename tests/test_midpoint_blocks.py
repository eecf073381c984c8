"""The midpoint kernel's blocks: seams, the vectorised bump, and memory.

``midpoint._kernel`` samples and solves the grid ``midpoint._BLOCK`` steps
at a time.  Rows are independent, so results must not depend on where the
blocks split the grid; the bit-for-bit tests in ``test_batched.py`` fit in
one block, the ones here span several.  The built-in sin² profile is
evaluated over a whole block with numpy and must round as the scalar
``_value``/``_rate`` do.  If it ever does not, the per-step loop comes back:
a digest is never regenerated to fit.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dircrawl
from dircrawl import engine, midpoint
from dircrawl.balance import solve_velocity
from dircrawl.body import Breather, CompositeStride, ConstantLength, SquareWave, TwoSegmentPath
from dircrawl.friction import FrictionLaw
from oracles import reference_simulate

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _first_occurrence_counts(regimes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in regimes:
        counts[r] = counts.get(r, 0) + 1
    return counts


_MIXED = FrictionLaw(1.0, 0.5, 1.0, 0.5)


@pytest.mark.parametrize(
    "law, gait",
    [
        (_MIXED, SquareWave(1.0, 0.3, 0.5, 1.0)),
        (FrictionLaw(0.0, 0.0, 1.0, 0.4), SquareWave(1.5, 0.2, -0.4, 0.7)),
        # strides whose every row is a gap root, on the stage model's fast path
        (
            FrictionLaw(0.0, 0.0, 1.0, 0.4),
            TwoSegmentPath(1.0, 0.5, (0.0, 0.4, 1.0), (0.4, 0.7, 0.4), (0.5, 0.3, 0.5)),
        ),
        (_MIXED, CompositeStride(1.0, 0.3, 1.5)),
        (_MIXED, Breather(1.0, 0.5, 1.0)),
        (FrictionLaw(0.75, 0.25, 0.0, 0.0), ConstantLength(1.0, 0.5, 0.4, 0.3, 2.0)),
        (
            _MIXED,
            Breather(
                1.0,
                0.0,
                1.0,
                profile=lambda t: 1.0 + 0.5 * t * (1.0 - t),
                profile_rate=lambda t: 0.5 - t,
                corners=(0.0, 0.5, 1.0),
            ),
        ),
    ],
    ids=[
        "wave",
        "newtonian_contraction_wave",
        "newtonian_path",
        "mixed_stride",
        "breather",
        "constant_length",
        "custom_breather",
    ],
)
def test_simulate_across_block_seams_matches_scalar_loop(law, gait):
    times, x1, lengths, regimes = reference_simulate(law, gait, n_periods=3, x0=0.25)
    assert len(regimes) > 2 * midpoint._BLOCK  # at least three blocks
    traj = engine.simulate(law, gait, n_periods=3, x0=0.25)
    assert traj.times.tobytes() == _bits(times)
    assert traj.x1.tobytes() == _bits(x1)
    assert traj.l.tobytes() == _bits(lengths)
    assert traj.regimes == tuple(regimes)
    mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
    residuals = [solve_velocity(law, gait.shape_at(t), gait.rate_at(t)).residual for t in mids]
    assert list(traj.meta.items()) == [
        ("regime_counts", _first_occurrence_counts(regimes)),
        ("residual_max", max(residuals)),
    ]


_BUMP_CLASSES = [c for c in inputs.CLASSES if c.split("/")[0] in ("breather", "constant_length")]


@pytest.mark.parametrize("cls", _BUMP_CLASSES)
def test_vectorised_bump_equals_scalar_profile_bit_for_bit(cls):
    # np.sin must round as math.sin does, and the square must be
    # np.float_power(s, 2.0): Python's s ** 2 is libm pow, which
    # np.float_power calls, while numpy's ** 2 and np.square compute s * s,
    # which differs from pow on about 1 sine in 1200.
    rng = random.Random(cls)
    for seed in range(1, 11):
        _, gait = inputs.draw(seed, "trajectory", 0, cls, dircrawl).build(dircrawl)
        assert gait.profile is None
        grid = midpoint._stage_grid(gait, gait.period / 2000, 2)[0]
        mids = 0.5 * (grid[:-1] + grid[1:])
        times = [*mids.tolist(), *(rng.uniform(0.0, 200.0) * gait.period for _ in range(2000))]
        arcs, rates = midpoint.sample(gait, times)
        assert arcs[:, 1].tobytes() == _bits([gait._value(t) for t in times]), seed
        assert rates[:, 0, 1].tobytes() == _bits([gait._rate(t) for t in times]), seed


@pytest.mark.parametrize("cls", [c for c in inputs.CLASSES if "wave" in c or "stride" in c])
def test_simulate_peak_memory_stays_small(cls):
    # Temporaries scale with the block size: one (breakpoints, rows) array
    # each in the batch, about 1.4 MB at the peak with blocks of 2048 rows
    # (1.26-1.38 MB on seed 1 when every row took the batch); rows the stage
    # model knows need none, 0.88-1.0 MB.
    law, gait = inputs.draw(1, "trajectory", 0, cls, dircrawl).build(dircrawl)
    engine.simulate(law, gait, n_periods=2, dt=gait.period / 10)  # imports and caches
    tracemalloc.start()
    try:
        engine.simulate(law, gait, n_periods=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak
