"""Differential tests: closed-form velocities against the exact balance solver.

The solver is the oracle.  A closed-form velocity passes where the force it
leaves on the body is within the solver's own acceptance bound: at most
``balance._RESIDUAL_RTOL`` times the force scale ``fscale`` that
``balance._solve`` computes for the same pieces.  An example is excused only
where the solver itself cannot resolve the balance
(:class:`DegenerateSubstrateError`) or ``fscale`` is not finite.  Magnitudes
run from 1e-300 to 1e300.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dircrawl import balance
from dircrawl.analytic import breather_velocity
from dircrawl.body import PiecewiseAffineShape, ShapeRate
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw

# 1e-300 .. 1e300, and plain values near 1
_MAG = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300)),
    st.floats(0.01, 10.0),
)
_RATE = st.one_of(_MAG, _MAG.map(lambda v: -v))
_COEF = st.one_of(st.just(0.0), _MAG)
_LAWS = st.tuples(_COEF, _COEF, _COEF, _COEF).filter(any).map(lambda c: FrictionLaw(*c))
_FRAC = st.floats(0.001, 0.999)


def _assert_balances(law: FrictionLaw, shape: PiecewiseAffineShape, rate: ShapeRate, v: float):
    """``v`` balances the force on ``shape`` moving at ``rate`` as well as the
    solver must balance it."""
    try:
        balance.solve_velocity(law, shape, rate)
    except DegenerateSubstrateError:
        return
    pieces = balance._pieces(shape, rate)
    vscale = max(1.0, max(abs(r) for p in pieces for r in p[2:]))
    fscale = (law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * vscale) * shape.length
    if not math.isfinite(fscale):
        return
    residual = balance._force_mag(balance._force(law, pieces, v))
    assert residual <= balance._RESIDUAL_RTOL * fscale, (v, residual, fscale)


@settings(max_examples=300)
@given(_LAWS, _RATE, _MAG)
# Past misses of the closed form, one per line: w * w underflowed to 0, so
# sqrt(disc) lost |w|; the scaled denominator underflowed to 0
# (ZeroDivisionError); mu_1 * mu_2 underflowed to 0.
@example(FrictionLaw(6.45764138461172, 1.6382689039269216, 0, 0), -2.2797070338325814e275, 1.0)
@example(FrictionLaw(4.470877581627024e56, 0.0, 0.0, 6.027151618559045e277), -9.121782968964876e139, 1.0)
@example(FrictionLaw(0.0, 0.0, 1e-24, 1e-300), 1.0, 1.0)
def test_breather_velocity_balances_the_one_segment_body(law, ldot, length):
    shape = PiecewiseAffineShape((0.0, 1.0), (0.0, length))
    rate = ShapeRate((0.0, 1.0), ((0.0, ldot),))
    _assert_balances(law, shape, rate, breather_velocity(law, ldot))


@settings(max_examples=300)
@given(_LAWS, _RATE, _MAG, _FRAC, _FRAC)
@example(FrictionLaw(6.45764138461172, 1.6382689039269216, 0, 0), -2.2797070338325814e275, 1.0, 0.5, 0.4)
@example(FrictionLaw(4.470877581627024e56, 0.0, 0.0, 6.027151618559045e277), -9.121782968964876e139, 1.0, 0.5, 0.4)
@example(FrictionLaw(0.0, 0.0, 1e-24, 1e-300), 1.0, 1.0, 0.5, 0.4)
def test_constant_length_body_moves_as_a_breather_of_its_first_segment(law, l1dot, length, split, frac):
    # ConstantLength's two-segment shape: the first segment grows at l1dot
    # while the second shrinks, the total length fixed at the reference one
    l1 = length * frac
    shape = PiecewiseAffineShape((0.0, length * split, length), (0.0, l1, length))
    rate = ShapeRate(shape.ref, ((0.0, l1dot), (l1dot, 0.0)))
    _assert_balances(law, shape, rate, breather_velocity(law, l1dot))
