"""Reparametrisation oracle for two-segment paths on rate-free laws.

A dry law's force does not depend on how fast the body slides, and a
Newtonian law's is linear in the velocities, so the balance velocity
scales with the shape's rate: over a cycle the crawler's displacement
depends on the path it traces in segment-length space, not on when it
passes each vertex.  Redrawing a ``TwoSegmentPath``'s ``times`` must leave
its displacement unchanged.  A mixed law weighs sliding speed against a
rate-free threshold, so on a mixed law the displacement moves with the
timing: it is the negative control.  A metamorphic relation (Chen et al.
1998), it needs no closed form.

The default integrator takes any path.  The midpoint grid is exact only
where the velocity is constant within each stage, as on a composite
stride's path; on a general path its O(dt^2) error depends on where the
timing puts the samples (9.6e-4 of the scale at ``dt = period/400`` on one
random dry path, 2.0e-5 at ``period/4000``), so random paths use the
default integrator alone.

Tolerance: ``1e-13`` of the cycle's scale, the largest body length on the
path.  A scan read at most 6.0e-16 on 300 random dry and 300 random
Newtonian paths (default integrator), and at most 2.4e-15 on the strides
of seeds 1-40 (both integrators); the mixed-law strides of seeds 1-40
differed by at least 2.5e-5.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dircrawl
from dircrawl import engine
from dircrawl.body import TwoSegmentPath
from dircrawl.friction import FrictionLaw
from test_mirror_paths import _COEF, _INTEGRATORS, _paths

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

_RTOL = 1e-13
# A stride's stage durations after the redraw, as multiples of the old:
# every stage at a different speed.
_STRETCH = (0.25, 3.0, 1.0, 0.5)


def _redrawn(path: TwoSegmentPath, durations) -> TwoSegmentPath:
    times = [0.0]
    for d in durations:
        times.append(times[-1] + d)
    return TwoSegmentPath(path.ref_length, path.split, tuple(times), path.l1, path.l2)


def _gap(law: FrictionLaw, path: TwoSegmentPath, redrawn: TwoSegmentPath, integrator: str) -> float:
    """``|x - x_redrawn|`` over the cycle's scale."""
    x, y = (
        engine.cycle_displacement(law, p, dt=_INTEGRATORS[integrator](p)).net_displacement
        for p in (path, redrawn)
    )
    return abs(x - y) / max(a + b for a, b in zip(path.l1, path.l2))


def _stride_gaps(family: str, integrator: str) -> list[float]:
    """The gap of each of seeds 1-10's strides, redrawn by ``_STRETCH``."""
    gaps = []
    for seed in range(1, 11):
        law, stride = inputs.draw(seed, "cycles", 0, f"composite_stride/{family}", dircrawl).build(dircrawl)
        path = stride.as_path()
        steps = [b - a for a, b in zip(path.times, path.times[1:])]
        gaps.append(_gap(law, path, _redrawn(path, [f * d for f, d in zip(_STRETCH, steps)]), integrator))
    return gaps


@pytest.mark.parametrize("integrator", _INTEGRATORS)
@pytest.mark.parametrize("family", ["dry", "newtonian"])
def test_redrawn_stride_moves_alike(family, integrator):
    assert max(_stride_gaps(family, integrator)) <= _RTOL


@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_redrawn_stride_on_a_mixed_law_moves_otherwise(integrator):
    # negative control: the timing weighs in once the law has both parts
    assert min(_stride_gaps("mixed", integrator)) > 1e3 * _RTOL


_RATE_FREE_LAWS = st.one_of(
    st.tuples(_COEF, _COEF).map(lambda c: FrictionLaw(c[0], c[1], 0.0, 0.0)),
    st.tuples(_COEF, _COEF).map(lambda c: FrictionLaw(0.0, 0.0, c[0], c[1])),
)


@settings(max_examples=40, deadline=None)
@given(
    law=_RATE_FREE_LAWS,
    path=_paths(),
    durations=st.lists(st.floats(0.05, 2.0), min_size=4, max_size=4),
)
def test_redrawn_path_moves_alike(law, path, durations):
    redrawn = _redrawn(path, durations[: len(path.times) - 1])
    assert _gap(law, path, redrawn, "default") <= _RTOL
