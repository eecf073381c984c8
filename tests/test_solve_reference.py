"""The single-pass scalar solve against the version it replaced.

``balance._solve`` finds the rates, ``vscale`` and the breakpoints in one
pass over the pieces and keeps the best candidate as it goes;
``oracles.reference_solve`` is the previous version, kept verbatim, which
collected candidate sets and reduced them with ``min(..., key=abs)``.  Both
must return the same five outputs bit for bit (signed zeros included), or
raise the same error with the same message, on piece sets of every kind the
solver meets: rigid, crossing and zero-length pieces, dry (plateau) and
one-sided laws, at magnitudes up to 1e+-300.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dircrawl import balance
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw
from oracles import reference_poly_roots_in, reference_solve


def _spread(lo: float, hi: float):
    """Floats in ``[lo, hi]`` with full mantissas."""
    return st.integers(0, 2**53).map(lambda k: lo + (hi - lo) * (k / 2**53))


# powers of ten that scale a whole quantity: lengths, rates or a law
_SCALE = st.one_of(
    st.just(1.0),
    st.sampled_from([1e-300, 1e-200, 1e-100, 1e-12, 1e12, 1e100, 1e200, 1e300]),
    st.integers(-300, 300).map(lambda k: 10.0**k),
)
_COEF = st.one_of(st.just(0.0), st.just(1.0), _spread(1e-3, 1e3))
_RATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), _spread(-1e3, 1e3))
# dry, Newtonian, one side frictionless, or all four drawn
_LAW_KIND = st.sampled_from(["dry", "newtonian", "free_backward", "free_forward", "general"])
_ZEROED = {
    "dry": (2, 3),
    "newtonian": (0, 1),
    "free_backward": (0, 2),
    "free_forward": (1, 3),
    "general": (),
}


@st.composite
def _cases(draw):
    """A law and 1 to 3 pieces ``(s0, s1, r0, r1)`` starting at 0."""
    kind = draw(_LAW_KIND)
    law_scale = draw(_SCALE)
    coefs = [0.0 if i in _ZEROED[kind] else draw(_COEF) * law_scale for i in range(4)]
    if not any(coefs):
        coefs[3 if kind == "free_backward" else 0] = law_scale
    law = FrictionLaw(*coefs)
    length_scale, rate_scale = draw(_SCALE), draw(_SCALE)
    pieces = []
    s0, prev = 0.0, draw(_RATE) * rate_scale
    for _ in range(draw(st.integers(1, 3))):
        seg = draw(st.one_of(st.just(0.0), st.just(1.0), _spread(1e-3, 1e3)))
        s1 = s0 + seg * length_scale
        # a continuous field, a rigid piece (equal end rates) or a jump
        r0 = draw(st.one_of(st.just(prev), _RATE.map(lambda r: r * rate_scale)))
        r1 = draw(st.one_of(st.just(r0), _RATE.map(lambda r: r * rate_scale)))
        pieces.append((s0, s1, r0, r1))
        s0, prev = s1, r1
    return law, pieces, s0


def _outcome(solve, law, pieces, l_total):
    try:
        x, regime, residual, stick, signs = solve(law, pieces, l_total)
    except DegenerateSubstrateError as exc:
        return type(exc), str(exc)
    stick = tuple((lo.hex(), hi.hex()) for lo, hi in stick)
    return x.hex(), regime, residual.hex(), stick, signs


@settings(max_examples=400)
@given(_cases())
# a dry plateau, a one-sided tail, a body that sticks whole, a 1e300 overflow
@example((FrictionLaw(1.0, 1.0, 0.0, 0.0), [(0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 1.0, 0.0)], 2.0))
@example((FrictionLaw(0.0, 1.0, 0.0, 1.0), [(0.0, 1.0, -1.0, 1.0)], 1.0))
@example((FrictionLaw(1.0, 2.0, 0.0, 0.0), [(0.0, 1.0, 0.5, 0.5)], 1.0))
@example((FrictionLaw(1.0, 1.0, 1e300, 1e300), [(0.0, 1e300, 0.0, 1e300)], 1e300))
def test_solve_matches_the_reference_bit_for_bit(case):
    law, pieces, l_total = case
    assert _outcome(balance._solve, law, pieces, l_total) == _outcome(
        reference_solve, law, pieces, l_total
    )


@pytest.mark.parametrize("swap", [False, True])
def test_two_roots_in_a_gap_pick_the_same_one(monkeypatch, swap):
    # a monotone force leaves one root per bracketed gap, so random piece
    # sets never reach the two-root rule (none in 2e5 draws); hand both
    # solvers the same two roots, the exact one first or second
    law = FrictionLaw(0.0, 0.0, 1.0, 3.0)
    pieces = [(0.0, 1.0, -1.0, 1.0)]
    exact = balance._solve(law, pieces, 1.0)[0]
    roots = [exact + 1e-3, exact][:: -1 if swap else 1]
    monkeypatch.setattr(balance, "_poly_roots_in", lambda *args: list(roots))
    monkeypatch.setattr(oracles, "reference_poly_roots_in", lambda *args: list(roots))
    got = _outcome(balance._solve, law, pieces, 1.0)
    assert got == _outcome(reference_solve, law, pieces, 1.0)
    assert got[0] == exact.hex()


_ROOT_COEF = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    _spread(-1e3, 1e3),
)


@settings(max_examples=300)
@given(_ROOT_COEF, _ROOT_COEF, _ROOT_COEF, _ROOT_COEF, _ROOT_COEF)
@example(1.0, -2.0, 1.0, 0.0, 2.0)  # a double root
@example(0.0, 0.0, 0.0, -1.0, 1.0)  # a constant: no root
@example(1.0, 0.0, 0.0, -1.0, 1.0)  # q == 0: the root 0
def test_poly_roots_match_the_reference_bit_for_bit(a, b, c, g0, g1):
    lo, hi = min(g0, g1), max(g0, g1)
    got = [x.hex() for x in balance._poly_roots_in(a, b, c, lo, hi)]
    assert got == [x.hex() for x in reference_poly_roots_in(a, b, c, lo, hi)]
