"""The midpoint rows' helpers against the scalar sums they vectorise.

``midpoint._total_force_rows`` and ``midpoint._segment_poly_rows`` evaluate
``balance._force`` and ``balance._segment_poly`` for a block of rows at
once.  Each must give the scalar's floats bit for bit, signed zeros
included, at every breakpoint of a piece set (where pieces turn static or
end on a zero velocity) and between them; ``on_break`` must be set exactly
where ``_segment_poly`` raises.  Each runs on all the probes as one block,
and on one probe per block, where every per-row choice is made once.
``midpoint._poly_roots_rows`` must give ``balance._poly_roots_in``'s first
root and count where a discriminant rounds slightly below zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dircrawl import balance
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw
from dircrawl.midpoint import _poly_roots_rows, _segment_poly_rows, _total_force_rows

pytestmark = pytest.mark.bits


def _spread(lo: float, hi: float):
    """Floats in ``[lo, hi]`` with full mantissas, whose sums round (the
    shrinking ``st.floats`` favours short ones, which often add exactly)."""
    return st.integers(0, 2**53).map(lambda k: lo + (hi - lo) * (k / 2**53))


_COEF = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), _spread(1e-3, 1e3))
_RATE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    _spread(-1e3, 1e3),
)
_PROBE = st.one_of(st.sampled_from([0.0, -0.0]), _spread(-2e3, 2e3))


@st.composite
def _piece_sets(draw):
    """A law, 1 to 3 pieces ``(s0, s1, r0, r1)`` and the probes: every
    breakpoint, every gap midpoint, signed zeros and a few drawn values."""
    coefs = [draw(_COEF) for _ in range(4)]
    law = FrictionLaw(*coefs) if any(coefs) else FrictionLaw(1.0, 0.0, 0.0, 0.0)
    pieces = []
    s0, prev = 0.0, draw(_RATE)
    for _ in range(draw(st.integers(1, 3))):
        s1 = s0 + draw(st.one_of(st.floats(1e-3, 1e3), _spread(1e-3, 1e3)))
        # a continuous field, equal end rates (a piece that can stick) or a jump
        r0 = draw(st.one_of(st.just(prev), _RATE))
        r1 = draw(st.one_of(st.just(r0), _RATE))
        pieces.append((s0, s1, r0, r1))
        s0, prev = s1, r1
    breaks = sorted({-r for p in pieces for r in p[2:]})
    gaps = [0.5 * (lo + hi) for lo, hi in zip(breaks, breaks[1:])]
    drawn = draw(st.lists(_PROBE, max_size=4))
    return law, pieces, breaks + gaps + [0.0, -0.0] + drawn


def _rows(pieces):
    arc = np.array([[pieces[0][0]], *([p[1]] for p in pieces)])
    seg = arc[1:] - arc[:-1]
    r0 = np.array([[p[2]] for p in pieces])
    r1 = np.array([[p[3]] for p in pieces])
    return seg, r0, r1


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _blocks(helper, law, pieces, probes, one_per_block: bool) -> list[np.ndarray]:
    """``helper`` on the probes as one block, or on one probe per block,
    its outputs joined along the probes."""
    blocks = [[x] for x in probes] if one_per_block else [probes]
    with np.errstate(all="ignore"):  # as in midpoint._resolve
        outs = [helper(law, *_rows(pieces), np.array(block)[:, None]) for block in blocks]
    return [np.concatenate(parts) for parts in zip(*outs)]


def _check_total_force_rows(case, one_per_block: bool) -> None:
    law, pieces, probes = case
    lo, hi = _blocks(_total_force_rows, law, pieces, probes, one_per_block)
    expected = [balance._force(law, pieces, x) for x in probes]
    assert lo[:, 0].tobytes() == _bits([f[0] for f in expected])
    assert hi[:, 0].tobytes() == _bits([f[1] for f in expected])


def _check_segment_poly_rows(case, one_per_block: bool) -> None:
    law, pieces, probes = case
    a, b, c, on_break = _blocks(_segment_poly_rows, law, pieces, probes, one_per_block)
    for m, x in enumerate(probes):
        try:
            coeffs = balance._segment_poly(law, pieces, x)
        except DegenerateSubstrateError:
            assert on_break[m, 0], x
            continue
        assert not on_break[m, 0], x
        assert _bits([a[m, 0], b[m, 0], c[m, 0]]) == _bits(coeffs), x


@settings(max_examples=200)
@given(_piece_sets())
def test_total_force_rows_match_the_scalar_sum_bit_for_bit(case):
    _check_total_force_rows(case, one_per_block=False)


@settings(max_examples=200)
@given(_piece_sets())
def test_total_force_rows_one_probe_per_block_match_the_scalar_sum(case):
    _check_total_force_rows(case, one_per_block=True)


@settings(max_examples=200)
@given(_piece_sets())
def test_segment_poly_rows_match_the_scalar_coefficients_bit_for_bit(case):
    _check_segment_poly_rows(case, one_per_block=False)


@settings(max_examples=200)
@given(_piece_sets())
def test_segment_poly_rows_one_probe_per_block_match_the_scalar_coefficients(case):
    _check_segment_poly_rows(case, one_per_block=True)


_NONZERO = st.one_of(_spread(1e-3, 1e3), _spread(-1e3, -1e-3))


@settings(max_examples=200)
@given(_NONZERO, _NONZERO, st.integers(1, 2**12))
# b^2 - 4ac = -2^-50 against a threshold of -8e-12: a double root at 1
@example(1.0, 1.0, 1)
def test_a_slightly_negative_discriminant_is_a_double_root_in_both(a, root, ulps):
    # a (x - root)^2 with c raised by a few ulps: the discriminant falls
    # below 0 by less than its tolerance, and both take it as 0
    b = -2.0 * a * root
    c = a * root * root * (1.0 + ulps * 2.0**-52)
    disc = b * b - 4.0 * a * c
    assume(-balance._DISC_RTOL * (b * b + abs(4.0 * a * c)) < disc < 0.0)
    lo, hi = sorted((root - abs(root), root + abs(root)))
    roots = balance._poly_roots_in(a, b, c, lo, hi)
    assert len(roots) == 2
    x, n = _poly_roots_rows(*(np.array([v]) for v in (a, b, c, lo, hi)))
    assert n.tolist() == [2]
    assert x.tobytes() == _bits(roots[:1])
    assert math.isclose(roots[0], root, rel_tol=1e-5)


_ROOT = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 4.0, -4.0]), _spread(-4.0, 4.0))
_SCALE = st.one_of(st.integers(500, 1100), st.integers(-1100, -500))


@settings(max_examples=300)
@given(_NONZERO, _ROOT, _ROOT, _SCALE)
# b = 0: the power of two comes from sqrt|ac| alone
@example(1.0, 1.0, -1.0, -700)
# c = 0: b * b underflows unless b alone sets the power of two
@example(1.0, 0.0, 2.0**-200, -560)
# 4a overflows, so 4ac and the span are NaN: both rescale such a row
@example(0.001, 0.0, 0.0, 1032)
def test_roots_do_not_depend_on_a_power_of_two_scale(a, r1, r2, k):
    # a (x - r1) (x - r2) times 2**k, where b * b + |4ac| leaves
    # [2**-960, 2**960]: the roots are those of the unscaled polynomial
    coeffs = (a, -a * (r1 + r2), a * r1 * r2)
    scaled = tuple(balance._ldexp(v, k) for v in coeffs)
    assume(all(u == 0.0 or 2.0**-1022 <= abs(v) < math.inf for u, v in zip(coeffs, scaled)))
    roots = balance._poly_roots_in(*coeffs, -4.0, 4.0)
    assert [x.hex() for x in balance._poly_roots_in(*scaled, -4.0, 4.0)] == [x.hex() for x in roots]
    # both as one block: one row rescaled, one not
    rows = (np.array([u, v]) for u, v in zip(coeffs + (-4.0, 4.0), scaled + (-4.0, 4.0)))
    with np.errstate(all="ignore"):
        x, n = _poly_roots_rows(*rows)
    assert n.tolist() == [len(roots)] * 2
    if roots:
        assert x.tobytes() == _bits(roots[:1] * 2)
