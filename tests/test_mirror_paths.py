"""Mirror oracle for two-segment paths and composite strides.

Reflecting the crawler swaps its ends: ``TwoSegmentPath(L, L - s, times,
l2, l1)`` on the law with its two sliding directions swapped moves the
left end by minus what ``TwoSegmentPath(L, s, times, l1, l2)`` moves it
over one cycle (both ends move alike over a closed cycle).  A metamorphic
relation (Chen et al. 1998) needs no closed form, so it also holds the
mixed-law composite stride, which has none, written as its path
(``CompositeStride.as_path``).

Tolerance: ``1e-13`` of the cycle's scale, the largest body length on the
path.  A scan of the 120 strides of seeds 1-40 (all three law families)
and 120 random paths found at most 3.8e-16 on the default integrator and
3.5e-15 on the midpoint grid at ``dt = period/400``; the negative control,
the mirrored path on the unswapped asymmetric law, was at least 2.7e-3 off.

The strides run at unit scale and scaled by powers of two as in
``test_cycle_magnitudes.py`` (lengths by ``2**m``, times by ``2**n``, yields
by ``2**j``, viscosities by ``2**(j - m + n)``), with ``|m|``, ``|n|`` and
``|j|`` at 250 or 400; the tolerance stays relative to the scaled length.
A scan of seeds 1-40 of the stride and both profile classes, all three law
families, on both integrators, at the 56 such scales whose viscosities stay
finite (``|j - m + n| <= 900``), read at most 3.5e-15 on a stride's midpoint
grid and 5.8e-16 on a profile gait, over 31,678 pairs; the negative control
was at least 3.1e-4 off.  The other pairs raised
:class:`DegenerateSubstrateError` where a gap polynomial's coefficients, or
its ``b * b`` or ``4ac`` in ``balance._poly_roots_in``, leave the double
range and its root is lost: every Newtonian and mixed case at 18 scales,
and the default cycle of one mixed constant-length crawler at two more.
The scales here are among the rest.
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
from test_cycle_magnitudes import _scaled

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

_RTOL = 1e-13
_INTEGRATORS = {"default": lambda path: None, "midpoint": lambda path: path.period / 400}
# (m, n, j) of _scaled, in pairs of opposite signs; every cycle at each
# stays in the double range (none raised in the scan)
_SCALES = {
    f"m={m},n={n},j={j}": (m, n, j)
    for m, n, j in [
        (0, 0, 0),
        (-400, -250, 400),
        (400, 250, -400),
        (-250, -400, 250),
        (250, 400, -250),
        (-400, 250, -250),
        (400, -250, 250),
    ]
}


def _swapped(law: FrictionLaw) -> FrictionLaw:
    return FrictionLaw(law.tau_plus, law.tau_minus, law.mu_plus, law.mu_minus)


def _mirrored(path: TwoSegmentPath) -> TwoSegmentPath:
    return TwoSegmentPath(path.ref_length, path.ref_length - path.split, path.times, path.l2, path.l1)


def _mirror_gap(law: FrictionLaw, mirror_law: FrictionLaw, path: TwoSegmentPath, dt) -> float:
    """``|x + x_mirror|`` over the cycle's scale."""
    x = engine.cycle_displacement(law, path, dt=dt).net_displacement
    mirrored = engine.cycle_displacement(mirror_law, _mirrored(path), dt=dt).net_displacement
    return abs(x + mirrored) / max(a + b for a, b in zip(path.l1, path.l2))


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("integrator", _INTEGRATORS)
@pytest.mark.parametrize("family", ["dry", "newtonian", "mixed"])
def test_mirrored_stride_moves_back(family, integrator, scale):
    for seed in range(1, 11):
        case = inputs.draw(seed, "cycles", 0, f"composite_stride/{family}", dircrawl)
        law, stride = _scaled(case, *_SCALES[scale]).build(dircrawl)
        path = stride.as_path()
        dt = _INTEGRATORS[integrator](path)
        assert _mirror_gap(law, _swapped(law), path, dt) <= _RTOL, seed
        # negative control: the mirrored path on the same, asymmetric law
        assert _mirror_gap(law, law, path, dt) > 1e3 * _RTOL, seed


_COEF = st.floats(0.1, 2.0)
_LAWS = st.one_of(
    st.tuples(_COEF, _COEF).map(lambda c: FrictionLaw(c[0], c[1], 0.0, 0.0)),
    st.tuples(_COEF, _COEF).map(lambda c: FrictionLaw(0.0, 0.0, c[0], c[1])),
    st.tuples(_COEF, _COEF, _COEF, _COEF).map(lambda c: FrictionLaw(*c)),
)


@st.composite
def _paths(draw) -> TwoSegmentPath:
    """Closed paths of 2-4 vertices, split anywhere inside the body."""
    vertices = [(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))) for _ in range(draw(st.integers(2, 4)))]
    vertices.append(vertices[0])
    times = [0.0]
    for _ in vertices[1:]:
        times.append(times[-1] + draw(st.floats(0.05, 2.0)))
    length = draw(st.floats(0.5, 2.0))
    split = draw(st.floats(0.05, 0.95)) * length
    return TwoSegmentPath(
        length, split, tuple(times), tuple(v[0] for v in vertices), tuple(v[1] for v in vertices)
    )


@settings(max_examples=40, deadline=None)
@given(law=_LAWS, path=_paths(), integrator=st.sampled_from(sorted(_INTEGRATORS)))
def test_mirrored_path_moves_back(law, path, integrator):
    assert _mirror_gap(law, _swapped(law), path, _INTEGRATORS[integrator](path)) <= _RTOL
