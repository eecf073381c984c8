"""Mirror oracle for profile gaits: breathers and constant-length crawlers.

Reflecting the crawler swaps its ends, and its law's two sliding
directions with them.  A breather deforms affinely, so it is its own mirror
image: on the swapped law it moves by minus what it moves on its own law
over one cycle.  A constant-length crawler ``ConstantLength(L, x*, r, delta,
T)`` mirrored is ``ConstantLength(L, L - x*, L - r, -delta, T)``: its first
segment becomes the second.  Like ``test_mirror_paths.py`` this needs no
closed form, so it also holds the mixed-law families, whose cycles are
quadratures.

Tolerance: ``1e-13`` of the reference body length ``L``.  A scan of seeds
1-40 of the six profile classes on both integrators (the default, and the
midpoint grid at ``dt = period/400``) read at most 5.9e-16, and one of 300
random gaits on random laws at most 1.7e-15, both on a breather's midpoint
grid; the negative control, the mirrored gait on the unswapped asymmetric
law, was at least 3.1e-4 off.
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
from dircrawl.body import Breather, ConstantLength
from test_mirror_paths import _INTEGRATORS, _LAWS, _swapped

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

_RTOL = 1e-13


def _mirrored(gait):
    if isinstance(gait, Breather):
        return gait
    L = gait.ref_length
    return ConstantLength(L, L - gait.split, L - gait.seg1_rest, -gait.delta, gait.period)


def _mirror_gap(law, mirror_law, gait, dt) -> float:
    """``|x + x_mirror|`` over the body length."""
    x = engine.cycle_displacement(law, gait, dt=dt).net_displacement
    mirrored = engine.cycle_displacement(mirror_law, _mirrored(gait), dt=dt).net_displacement
    return abs(x + mirrored) / gait.ref_length


@pytest.mark.parametrize("integrator", _INTEGRATORS)
@pytest.mark.parametrize("family", ["dry", "newtonian", "mixed"])
@pytest.mark.parametrize("kind", ["breather", "constant_length"])
def test_mirrored_profile_gait_moves_back(kind, family, integrator):
    for seed in range(1, 11):
        law, gait = inputs.draw(seed, "cycles", 0, f"{kind}/{family}", dircrawl).build(dircrawl)
        dt = _INTEGRATORS[integrator](gait)
        assert _mirror_gap(law, _swapped(law), gait, dt) <= _RTOL, seed
        # negative control: the mirrored gait on the same, asymmetric law
        assert _mirror_gap(law, law, gait, dt) > 1e3 * _RTOL, seed


@st.composite
def _profile_gaits(draw):
    """Breathers that stretch or shrink, and crawlers split anywhere."""
    u = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    if draw(st.booleans()):
        length = u(0.5, 2.0)
        return Breather(length, u(-0.45, 1.5) * length, u(0.5, 2.0))
    length = u(0.5, 2.0)
    rest = u(0.2, 0.8) * length
    return ConstantLength(length, u(0.05, 0.95) * length, rest, u(-0.15, 0.15) * length, u(0.5, 2.0))


@settings(max_examples=30, deadline=None)
@given(law=_LAWS, gait=_profile_gaits(), integrator=st.sampled_from(sorted(_INTEGRATORS)))
def test_mirrored_random_profile_gait_moves_back(law, gait, integrator):
    assert _mirror_gap(law, _swapped(law), gait, _INTEGRATORS[integrator](gait)) <= _RTOL
