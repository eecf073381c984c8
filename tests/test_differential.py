"""Differential tests: closed-form velocities against the exact balance solver.

The solver is the oracle.  A closed-form velocity passes where the force it
leaves on the body is within the solver's own acceptance bound: at most
``balance._RESIDUAL_RTOL`` times the force scale ``fscale`` that
``balance._solve`` computes for the same pieces.  An example is excused only
where the solver itself cannot resolve the balance
(:class:`DegenerateSubstrateError`, also raised where ``fscale`` overflows).
Magnitudes run from 1e-300 to 1e300.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dircrawl import balance
from dircrawl.analytic import (
    breather_velocity,
    sliding_delta_max,
    sliding_stage_velocity,
    wave_admissibility,
)
from dircrawl.body import PiecewiseAffineShape, ShapeRate, SquareWave
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
    _, _, fscale, _ = balance._breaks_and_scales(law, pieces, shape.length)
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


@st.composite
def _sliding_waves(draw):
    """``(law, epsilon, c, delta, L, t)``: only viscosity ahead of the wave,
    a width below the sliding bound and a time inside the first period, away
    from its ends, where SquareWave drops the slivers of wave it cannot
    resolve."""
    epsilon = draw(st.one_of(st.floats(0.001, 10.0), st.floats(-0.999, -0.001)))
    back_tau, back_mu, front_mu = draw(_COEF), draw(_COEF), draw(_MAG)
    if epsilon > 0.0:
        law = FrictionLaw(back_tau, 0.0, back_mu, front_mu)
    else:
        law = FrictionLaw(0.0, back_tau, front_mu, back_mu)
    c, L = draw(_MAG), draw(_MAG)
    delta = draw(_FRAC) * min(sliding_delta_max(law, epsilon, c, L), L)
    t = (L + delta) / c * draw(st.floats(1e-9, 1.0 - 1e-9))
    return law, epsilon, c, delta, L, t


@settings(max_examples=300)
@given(_sliding_waves())
# Past misses of the closed form, in order: numerator and denominator both
# underflowed to 0 (ZeroDivisionError); (tb + mb * e * c) * (1 + e)
# overflowed to inf; a subnormal entry time delta / c put an entering wave
# inside.
@example((FrictionLaw(0.0, 0.0, 1.7463201962556552e-258, 7.247045560965281e-286),
          1.7016575792447748, 1.1698436394910098e-64,
          4.25234180861948e-99, 4.5310968471217274e-99, 7.291463281595774e-35))
@example((FrictionLaw(5.333621378568872e145, 0.0, 7.068627694453513e294, 5.994829695344001e135),
          2.0513392825111283, 7450727466045.819,
          1.3669606653679978e-55, 3.2800066460542145e-55, 5.74175509464543e-68))
@example((FrictionLaw(0.0, 0.0, 8.75, 8.68), 2.37, 4.28e280, 4.75e-43, 9.5e-43, 1e-323))
def test_sliding_stage_velocity_balances_the_wave(wave):
    law, epsilon, c, delta, L, t = wave
    # SquareWave's nodes round a width below ~1e-12 of L, or a time that
    # underflows to 0, into a shape that is not valid
    assume(1e-12 * L < delta < L and 0.0 < t < (L + delta) / c)
    try:
        assume(wave_admissibility(law, epsilon, c, delta, L).regime == "sliding")
    except ValueError:  # a width bound leaves the float range
        assume(False)
    if delta / c < sys.float_info.min:
        # both tell the stages apart by times, which must be normal
        with pytest.raises(ValueError, match=r"^delta=.* is subnormal"):
            SquareWave(L, delta, epsilon, c)
        with pytest.raises(ValueError, match=r"^delta=.* is subnormal"):
            sliding_stage_velocity(law, epsilon, c, delta, L, t)
        return
    gait = SquareWave(L, delta, epsilon, c)
    shape, rate = gait.shape_at(t), gait.rate_at(t)
    try:
        v = sliding_stage_velocity(law, epsilon, c, delta, L, t)
    except ValueError:  # the velocity leaves the float range, so the solver fails too
        with pytest.raises(DegenerateSubstrateError):
            balance.solve_velocity(law, shape, rate)
        return
    try:
        x1dot = balance.solve_velocity(law, shape, rate).x1dot
    except DegenerateSubstrateError:
        return
    # Where the front barely moves, one rounding can set it sliding back
    # against the yield behind the wave, which then enters the force whole:
    # agreement with the solver within its stick tolerance passes too.
    rscale = max(abs(r) for pair in rate.seg_rates for r in pair)
    if abs(v - x1dot) <= balance._STICK_RTOL * rscale:
        return
    _assert_balances(law, shape, rate, v)
