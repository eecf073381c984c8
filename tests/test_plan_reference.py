"""The fast paths' reading of the candidate list against the rule it replaced.

``balance._plan`` returns every candidate of a solve in the order
``balance._solve`` evaluates them, and ``balance._settled`` is what the
fast paths take of that list.  ``oracles.reference_plan`` is the earlier
``_plan``, kept verbatim, which answered for the fast paths directly.  The
two must agree on every vector of candidate functions, including sign
patterns no monotone body force produces: roots on two gaps, a root beside
a set, NaN and infinite entries, and signed zeros.  ``_solve``'s own order
is held to ``oracles.reference_solve`` by ``test_solve_reference.py``.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dircrawl import balance
from dircrawl.friction import FrictionLaw
from oracles import reference_plan

_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# mu_minus and mu_plus: both frictionless tails, either one, or neither
_LAW = st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]).map(
    lambda mu: FrictionLaw(1.0, 1.0, *mu)
)


@st.composite
def _conds(draw):
    """Candidate functions for 1 to 6 breakpoints, laid out by ``balance._conds``."""
    n = draw(st.integers(1, 6))
    return draw(st.lists(_ENTRY, min_size=2 * n + 2, max_size=2 * n + 2))


@settings(max_examples=600)
@given(law=_LAW, g=_conds())
# roots on gaps 0 and 1
@example(law=FrictionLaw(1.0, 1.0, 1.0, 1.0), g=[1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
# a breakpoint set at 2 beside the root on gap 0
@example(law=FrictionLaw(1.0, 1.0, 1.0, 1.0), g=[1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
# the root on gap 0 beside a frictionless backward tail
@example(law=FrictionLaw(1.0, 1.0, 0.0, 1.0), g=[1.0, 1.0, 0.0, -1.0, -0.0, -1.0])
def test_fast_paths_read_the_list_as_the_reference_rule(law, g):
    assert balance._settled(law, g) == reference_plan(law, g)
    plan = balance._plan(law, g)
    # each candidate once, in _solve's order: breakpoints, then per gap a
    # root (its index) or a plateau, then the tails
    n = (len(g) - 2) // 2
    places = [_place(c, n) for c in plan]
    assert places == sorted(set(places))


def _place(c, n: int) -> tuple[int, int]:
    """Where candidate ``c`` of a :func:`balance._plan` list over ``n``
    breakpoints stands in ``_solve``'s order."""
    if type(c) is int:
        assert 0 <= c < n - 1
        return 1, c
    i, j = c
    if i is None or j is None:
        assert c in ((None, 0), (n - 1, None))
        return 2, j is None
    assert 0 <= i and j in (i, i + 1) and j < n
    return (0, i) if i == j else (1, i)
