"""Quasi-static force balance for a shape-controlled crawler.

Given a shape, its rate, and a candidate left-end velocity ``x1dot``, the
velocity of the material point at arc-length ``s`` is
``v(s) = x1dot + rate(s)`` with ``rate`` piecewise affine.  The total
substrate force is the integral of the friction law over the current body;
it is a non-increasing, set-valued function of ``x1dot``.  ``solve_velocity``
finds the ``x1dot`` whose force value contains zero, exactly.

Structure exploited by the solver: for ``x1dot`` between two consecutive
breakpoints (the negated interval-end rates), the sign pattern of ``v`` on
every interval is fixed, so the total force is a quadratic polynomial in
``x1dot`` (affine when the viscosities match or no zero crossing lies inside
an interval).  Beyond the extreme breakpoints no root is searched for:
friction only opposes sliding, so at the smallest breakpoint, where every
point slides backward, each term of the force is >= 0, and at the largest
each is <= 0.  The solution set of the balance is a closed interval; when it
has positive measure (dry plateaus, one-sided frictionless substrates) the
element closest to zero is returned, so that a vanishing force imbalance
produces no motion.

``solve_velocity`` is the public entry point: it takes a validated shape
and rate and returns a :class:`BalanceSolution`.  The work is done by the
private ``_solve`` on plain ``(s0, s1, r0, r1)`` piece tuples, which the
default cycle integrator calls directly with the pieces of a gait's
``_pieces_at(t)``; it also returns the sign pattern of the velocity at the
piece ends, which that integrator keys its panel cuts on.  ``_AffineStage``
models the balance over a stage whose piece rates are constant, for both
integrators.  ``_plan`` is the one candidate rule: ``_solve`` evaluates
its whole list, the fast paths only lists ``_settled`` accepts.
``_solve_profile`` is the node rule of profile gaits, with ``_solve``'s
signature and results: a node whose candidate is known to be a gap root
skips the search and calls the two parts of ``_solve`` that follow it,
``_gap_root`` and ``_classified``, and any other node is ``_solve``'s.
The tests hold ``_solve`` to independent oracles:
``oracles.reference_solve`` (the earlier solver, verbatim) and
``oracles.bisect_velocity`` (bisection on brute-force force sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytic
from .body import PiecewiseAffineShape, ShapeRate, _check_same_nodes
from .errors import DegenerateSubstrateError, _isfinite
from .friction import ForceValue, FrictionLaw

__all__ = [
    "SLIDING",
    "STICK_SLIP",
    "WHOLE_BODY_STICK",
    "REGIMES",
    "BalanceSolution",
    "total_force",
    "solve_velocity",
]

SLIDING = "sliding"
STICK_SLIP = "stick_slip"
WHOLE_BODY_STICK = "whole_body_stick"
#: Regimes in the order of the regime codes of the midpoint grid (``midpoint``).
REGIMES = (SLIDING, STICK_SLIP, WHOLE_BODY_STICK)

# Largest force residual accepted, relative to the solver's force scale.
_RESIDUAL_RTOL = 1e-9
# Tolerances of the candidate search and the regime classification; the
# midpoint rows read these names, so that they match bit for bit.
_ACCEPT_RTOL, _ACCEPT_FLOOR = 1e-13, 1e-300  # |force| <= RTOL * max(fscale, FLOOR) is zero
_STICK_RTOL = 1e-12  # a piece sticks where |v| <= _STICK_RTOL * vscale
_WHOLE_BODY_RTOL = 1e-12  # the whole body sticks from (1 - _WHOLE_BODY_RTOL) of it
_ROOT_SLACK = 1e-12  # a root this far outside its gap, times max(width, |lo|, |hi|), is kept
_DISC_RTOL = 1e-12  # a discriminant above -_DISC_RTOL * (b^2 + |4ac|) is zero
# A quadratic's b^2 + |4ac| outside [_SPAN_MIN, _SPAN_MAX] is rescaled first
# (_quadratic_roots), and a crossing piece whose |r0| + |r1| leaves [_RATE_MIN,
# _RATE_MAX] is summed at unit scale (_unit_crossing); the rows read these too.
_SPAN_MIN, _SPAN_MAX = 2.0**-960, 2.0**960
_RATE_MIN, _RATE_MAX = 2.0**-256, 2.0**256
_NO_EXPONENT = -1074  # below every frexp exponent of a nonzero double
# Every tolerance scales with the inputs: vscale = max|r| and the root slack
# is relative to the gap's own magnitude, so scaling every rate by 2**k and
# every viscosity by 2**-k scales the solution by exactly 2**k, while every
# intermediate stays normal.  _ACCEPT_FLOOR only keeps atol from underflowing.

# A fast path takes _solve's candidates from the signs of its candidate
# functions only where each is more than _MARGIN times atol from zero, since
# it gets them by other sums than _solve's.  The midpoint rows' stage model
# interpolates forces summed at the stage ends, where a row sums its own
# from its own arc-lengths: they differ by at most 0.005 atol on the
# constant-rate benchmark rows, ~2 ulps of the force scale fscale (atol is
# 1e-13 fscale), against ~110 ulps for this margin.  Profile gaits read
# their forces in closed form (_profile_forces), a few ulps from the sums:
# the midpoint grid's rows (midpoint._ProfileRows) and the default cycle
# path's nodes (_solve_profile).  The margin stays well below 1: on a
# frictionless side the tail's force is exactly 0, so its function is -atol
# or +atol all along, and a margin of a stage's larger atol would send every
# midpoint row of such a stage to the scalar solver.
_MARGIN = 0.25


def _profile_forces(law: FrictionLaw, speed):
    """Per unit length, the forces at the lower and the upper breakpoint of
    a profile gait whose rate ``p'`` has magnitude ``speed`` (a float or an
    array).  Its rates run from 0 to ``p'`` along the body, so everything
    slides backward at the one and forward at the other, whatever the shape."""
    return (
        law.tau_minus + law.mu_minus * speed * 0.5,
        -(law.tau_plus + law.mu_plus * speed * 0.5),
    )


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """The gap ``[lo, hi]`` widened by the slack within which a root is kept."""
    slack = _ROOT_SLACK * max(hi - lo, abs(lo), abs(hi))
    return lo - slack, hi + slack


@dataclass(frozen=True)
class BalanceSolution:
    """Result of solving the force balance.

    ``regime`` is ``sliding`` when every material point moves, ``stick_slip``
    when some positive-length part is at rest while the rest slips, and
    ``whole_body_stick`` when nothing moves.  ``stick_intervals`` lists the
    resting parts in arc-length; ``residual`` is the distance of the achieved
    total force from zero.
    """

    x1dot: float
    regime: str
    residual: float
    stick_intervals: tuple[tuple[float, float], ...] = ()


# (s0, s1, r0, r1) per piece: end arc-lengths and end rates
_Pieces = list[tuple[float, float, float, float]]


def _pieces(shape: PiecewiseAffineShape, rate: ShapeRate) -> _Pieces:
    _check_same_nodes(shape, rate)
    out = []
    for i in range(len(shape.ref) - 1):
        r0, r1 = rate.seg_rates[i]
        out.append((shape.arc[i], shape.arc[i + 1], r0, r1))
    return out


def total_force(
    law: FrictionLaw, shape: PiecewiseAffineShape, rate: ShapeRate, x1dot: float
) -> ForceValue:
    """Integral of the friction force over the current body, exactly.

    Each affine piece of the velocity field is split at its zero crossing;
    sliding parts contribute ``yield * length + viscosity * (trapezoid of v)``
    and parts with identically zero velocity contribute the static interval
    ``[-tau_plus, tau_minus]`` times their length.  The result is a point
    unless some positive-length part is at rest.
    """
    _isfinite("x1dot", x1dot)  # names an integer too large for a float
    return ForceValue(*_force(law, _pieces(shape, rate), x1dot))


def _force(law: FrictionLaw, pieces: _Pieces, x1dot: float) -> tuple[float, float]:
    """:func:`total_force` over the pieces of :func:`_pieces`, as ``(lo, hi)``.

    ``lo <= hi`` always holds, so :class:`ForceValue`'s order check is not
    needed here: ``tau_minus`` and ``tau_plus`` are >= 0, so the static
    terms only move ``lo`` down and ``hi`` up (IEEE rounding is monotone),
    and a NaN bound compares false."""
    tm, tp, mm, mp = law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus
    point_sum = 0.0
    static_len = 0.0
    for s0, s1, r0, r1 in pieces:
        seg = s1 - s0
        v0 = x1dot + r0
        v1 = x1dot + r1
        if v0 == 0.0 and v1 == 0.0:
            static_len += seg
        elif v0 <= 0.0 and v1 <= 0.0:
            point_sum += tm * seg - mm * 0.5 * (v0 + v1) * seg
        elif v0 >= 0.0 and v1 >= 0.0:
            point_sum += -tp * seg - mp * 0.5 * (v0 + v1) * seg
        else:  # a crossing: (tau, mu) of each part, the backward one's where v0 < 0
            len_a = v0 / (v0 - v1) * seg
            len_b = seg - len_a
            t0, m0, t1, m1 = (tm, mm, -tp, mp) if v0 < 0.0 else (-tp, mp, tm, mm)
            point_sum += t0 * len_a - m0 * 0.5 * v0 * len_a
            point_sum += t1 * len_b - m1 * 0.5 * v1 * len_b
    if static_len > 0.0:
        return point_sum - tp * static_len, point_sum + tm * static_len
    return point_sum, point_sum


def _segment_poly(
    law: FrictionLaw, pieces: _Pieces, x_probe: float
) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the total force a*x^2 + b*x + c, valid on
    the breakpoint-free segment containing ``x_probe``.  A piece whose
    velocity crosses zero adds :func:`_crossing`'s terms, or
    :func:`_unit_crossing`'s where its rates leave the range."""
    tm, tp, mm, mp = law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus
    a = b = c = 0.0
    for s0, s1, r0, r1 in pieces:
        seg = s1 - s0
        v0 = x_probe + r0
        v1 = x_probe + r1
        if v0 < 0.0 and v1 < 0.0:
            b += -mm * seg
            c += tm * seg - mm * 0.5 * (r0 + r1) * seg
        elif v0 > 0.0 and v1 > 0.0:
            b += -mp * seg
            c += -tp * seg - mp * 0.5 * (r0 + r1) * seg
        elif v0 < 0.0 < v1 or v1 < 0.0 < v0:
            if _RATE_MIN <= abs(r0) + abs(r1) <= _RATE_MAX:
                ends = (-tm, mm, -tp, -mp) if v0 < 0.0 else (-tp, -mp, -tm, mm)
                da, db, dc = _crossing(*ends, seg, r0, r1)
            else:
                da, db, dc = _unit_crossing(law, seg, r0, r1, v0 < 0.0)
            a, b, c = a + da, b + db, c + dc
        else:
            # a probe between two breakpoints that rounding put on one of them
            raise DegenerateSubstrateError(
                f"balance probe x1dot={x_probe!r} landed on a breakpoint: "
                "the shape's rates cannot be resolved at this scale"
            )
    return a, b, c


def _crossing(t0, m0, t1, m1, seg, r0, r1):
    """The force terms ``(a, b, c)`` of a piece of length ``seg`` whose
    velocity crosses zero, with factors ``(-tau_minus, mu_minus)`` at an end
    sliding backward and ``(-tau_plus, -mu_plus)`` at one sliding forward:
    one form for both directions (``x - y * z`` is ``x + (-y) * z`` and IEEE
    addition commutes), on floats or on the midpoint rows' arrays."""
    k = seg / abs(r1 - r0)
    a, b = 0.5 * (m0 + m1) * k, (t0 + t1 + m0 * r0 + m1 * r1) * k
    return a, b, (t0 * r0 + t1 * r1 + 0.5 * (m0 * r0 * r0 + m1 * r1 * r1)) * k


def _unit_crossing(
    law: FrictionLaw, seg: float, r0: float, r1: float, up: bool
) -> tuple[float, float, float]:
    """:func:`_crossing`'s terms of one piece of length ``seg`` whose
    velocity crosses zero upward (``up``, backward at ``r0``) or downward,
    summed with its rates ``r0``, ``r1`` and the law at unit scale
    (:func:`analytic._unit_scale`) and scaled back by exact powers of two:
    no square of a rate under- or overflows, and wherever the unscaled sums
    stay normal each term keeps their bits."""
    tm, tp, mm, mp, _, n, e = analytic._unit_scale(
        law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus, abs(r0) + abs(r1)
    )
    ends = (-tm, mm, -tp, -mp) if up else (-tp, -mp, -tm, mm)
    a, b, c = _crossing(*ends, seg, math.ldexp(r0, -n), math.ldexp(r1, -n))
    return _ldexp(a, e - n), _ldexp(b, e), _ldexp(c, e + n)


def _ldexp(x: float, n: int) -> float:
    """``x * 2**n``, infinite where it leaves the double range, as a product does."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _poly_roots_in(
    a: float, b: float, c: float, lo: float, hi: float
) -> list[float]:
    """Real roots of a*x^2 + b*x + c inside [lo, hi], numerically stable."""
    lo, hi = _widened(lo, hi)
    if a == 0.0:
        if b == 0.0:
            return []
        x = -c / b
        return [x] if lo <= x <= hi else []
    return [x for x in _quadratic_roots(a, b, c) if lo <= x <= hi]


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of ``a x^2 + b x + c``, ``a`` nonzero, in the form that
    does not cancel: ``(q/a, c/q)`` with ``q = -(b + sign(b) sqrt(b^2 -
    4ac)) / 2``, ``(0.0,)`` where ``q`` is 0, and none where the
    discriminant is below ``-_DISC_RTOL * (b^2 + |4ac|)``.  Where ``b^2 +
    |4ac|`` leaves ``[_SPAN_MIN, _SPAN_MAX]``, the coefficients are first
    divided by a power of two that brings ``b`` or ``sqrt|ac|`` near 1,
    whichever is larger (a zero one counts as smaller), and ``a`` below
    ``2**1021``, where ``4a`` is finite, which keeps the roots; elsewhere
    they are used as they are."""
    bb, ac = b * b, 4.0 * a * c
    if not _SPAN_MIN <= bb + abs(ac) <= _SPAN_MAX:
        eb, ea, ec = (math.frexp(v)[1] if v else _NO_EXPONENT for v in (b, a, c))
        k = max(eb, (ea + ec) // 2, ea - 1021)
        # an a that underflows to 0 keeps the least subnormal, so that q/a
        # overflows to inf, as the midpoint rows' q/0 does
        a = math.ldexp(a, -k) or math.copysign(math.ulp(0.0), a)
        b, c = math.ldexp(b, -k), math.ldexp(c, -k)
        bb, ac = b * b, 4.0 * a * c
    disc = bb - ac
    if disc < 0.0:
        if disc > -_DISC_RTOL * (bb + abs(ac)):
            disc = 0.0
        else:
            return ()
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    return (q / a, c / q) if q != 0.0 else (0.0,)


def solve_velocity(
    law: FrictionLaw, shape: PiecewiseAffineShape, rate: ShapeRate
) -> BalanceSolution:
    """Left-end velocity at which the total substrate force vanishes.

    A solution always exists for valid laws: friction only opposes motion,
    so the total force is non-negative once everything slides backward and
    non-positive once everything slides forward.  One-sided frictionless
    substrates make the solution set a half-line, resolved by the
    closest-to-zero rule.

    Raises :class:`DegenerateSubstrateError` when floating point cannot
    represent the balance: the force scale ``fscale`` overflows, no
    candidate is found, a bracket holds no root, or the force at the
    returned velocity is not finite or exceeds ``1e-9 * fscale`` (a real
    solution is within ~1e-15 of it).
    """
    x, regime, residual, stick, _ = _solve(law, _pieces(shape, rate), shape.length)
    return BalanceSolution(x1dot=x, regime=regime, residual=residual, stick_intervals=stick)


def _breaks_and_scales(
    law: FrictionLaw, pieces: _Pieces, l_total: float
) -> tuple[list[float], float, float, float]:
    """A solve's breakpoints ``-r`` ascending, its velocity and force scales,
    and the force it accepts as zero: ``(breaks, vscale, fscale, atol)``."""
    # one pass: the largest |rate| (the first of equals, as ``max`` keeps it)
    # and the breakpoints -r
    vmax = abs(pieces[0][2])
    negated = set()
    for _, _, r0, r1 in pieces:
        a0, a1 = abs(r0), abs(r1)
        if a0 > vmax:
            vmax = a0
        if a1 > vmax:
            vmax = a1
        negated.add(-r0)
        negated.add(-r1)
    fscale = (law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * vmax) * l_total
    return sorted(negated), vmax, fscale, _ACCEPT_RTOL * max(fscale, _ACCEPT_FLOOR)


def _solve(
    law: FrictionLaw, pieces: _Pieces, l_total: float
) -> tuple[float, str, float, tuple[tuple[float, float], ...], tuple[int, ...]]:
    """:func:`solve_velocity` on plain pieces of total length ``l_total``:
    ``(x1dot, regime, residual, stick_intervals, signs)``, where ``signs``
    holds the sign (-1, 0 or 1) of ``x1dot + r`` at each piece end, in
    piece order.  The pieces are trusted to come from a valid shape."""
    breaks, vscale, fscale, atol = _breaks_and_scales(law, pieces, l_total)
    if not math.isfinite(fscale):
        raise DegenerateSubstrateError("force scale overflows: no residual can be checked")

    forces = [_force(law, pieces, b) for b in breaks]
    best = None
    for c in _plan(law, _conds(forces, atol)):
        if type(c) is int:
            x = _gap_root(law, pieces, breaks[c], breaks[c + 1])
        else:
            x = _closest_to_zero(*_span(breaks, c))
        if best is None or abs(x) < abs(best):  # the first of equals
            best = x
    if best is None:
        raise DegenerateSubstrateError(
            "force balance unresolved at this scale: no velocity balances "
            "the force in floating point"
        )
    return _classified(law, pieces, l_total, best, vscale, fscale)


def _solve_profile(
    law: FrictionLaw, pieces: _Pieces, l_total: float
) -> tuple[float, str, float, tuple[tuple[float, float], ...], tuple[int, ...]]:
    """:func:`_solve` on the pieces of a profile gait, whose rates run from
    0 to ``p'`` along the body, so that the breakpoints are ``0`` and
    ``-p'`` and the forces there are closed forms (:func:`_profile_forces`).
    Where both clear the acceptance tolerance by ``_MARGIN``, the candidate
    functions read ``+ - + - + -`` in :func:`_conds`'s layout, whose
    :func:`_plan` is the root on the gap between them alone, on every law:
    that root is taken with ``_solve``'s scales, the same bits with one
    force sum where ``_solve`` takes three.  Any other node is ``_solve``'s."""
    rate = pieces[0][3]  # p': the first piece runs from rate 0 to p'
    speed = abs(rate)  # vscale, as _breaks_and_scales finds it
    per_length = law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * speed
    fscale = per_length * l_total  # _breaks_and_scales's sum, bit for bit
    need = (1.0 + _MARGIN) * _ACCEPT_RTOL * per_length
    lower, upper = _profile_forces(law, speed)
    if rate != 0.0 and _ACCEPT_FLOOR <= fscale < math.inf and lower > need and -upper > need:
        g0, g1 = (-rate, -0.0) if rate > 0.0 else (-0.0, -rate)  # _solve's breaks
        return _classified(law, pieces, l_total, _gap_root(law, pieces, g0, g1), speed, fscale)
    return _solve(law, pieces, l_total)


def _gap_root(law: FrictionLaw, pieces: _Pieces, g0: float, g1: float) -> float:
    """The candidate :func:`_solve` takes on the gap ``[g0, g1]`` between two
    breakpoints where the force falls through zero: the root there of the
    gap's polynomial, probed at the gap's middle, the one of least residual
    where two are kept (the first of equals), and +0.0 for a root at -0.0.
    Raises :class:`DegenerateSubstrateError` where the polynomial has no
    root on the gap."""
    a, bq, cq = _segment_poly(law, pieces, 0.5 * (g0 + g1))
    roots = _poly_roots_in(a, bq, cq, g0, g1)
    if not roots:
        raise DegenerateSubstrateError(
            f"force changes sign between x1dot={g0!r} and {g1!r} but "
            "its polynomial there has no root in floating point"
        )
    x = roots[0]
    if len(roots) > 1:
        mags = [_force_mag(_force(law, pieces, r)) for r in roots]
        if mags[1] < mags[0]:
            x = roots[1]
    return 0.0 if x == 0.0 else x


def _classified(
    law: FrictionLaw, pieces: _Pieces, l_total: float, x_star: float, vscale: float, fscale: float
) -> tuple[float, str, float, tuple[tuple[float, float], ...], tuple[int, ...]]:
    """:func:`_solve`'s result at its chosen velocity ``x_star``: the stuck
    parts, regime and sign pattern of the velocity field there, and the
    force residual, which must be finite and within ``_RESIDUAL_RTOL *
    fscale`` (else :class:`DegenerateSubstrateError`)."""
    stick: list[tuple[float, float]] = []
    signs: list[int] = []
    stick_tol = _STICK_RTOL * vscale
    for s0, s1, r0, r1 in pieces:
        v0 = x_star + r0
        v1 = x_star + r1
        signs.append((v0 > 0.0) - (v0 < 0.0))
        signs.append((v1 > 0.0) - (v1 < 0.0))
        if r0 == r1 and abs(v0) <= stick_tol:
            if stick and stick[-1][1] == s0:
                stick[-1] = (stick[-1][0], s1)
            else:
                stick.append((s0, s1))
    stick_len = sum(hi - lo for lo, hi in stick)
    if stick_len >= l_total * (1.0 - _WHOLE_BODY_RTOL):
        regime = WHOLE_BODY_STICK
    elif stick:
        regime = STICK_SLIP
    else:
        regime = SLIDING

    residual = _force_mag(_force(law, pieces, x_star))
    if not (math.isfinite(residual) and residual <= _RESIDUAL_RTOL * fscale):
        raise DegenerateSubstrateError(
            f"force balance unresolved at this scale: residual {residual!r} "
            f"at x1dot={x_star!r} against a force scale of {fscale!r}"
        )
    return x_star, regime, residual, tuple(stick), tuple(signs)


def _closest_to_zero(lo: float, hi: float) -> float:
    if lo <= 0.0 <= hi:
        return 0.0
    return hi if hi < 0.0 else lo


def _force_mag(force: tuple[float, float]) -> float:
    """Distance of a ``(lo, hi)`` force from zero."""
    lo, hi = force
    if lo <= 0.0 <= hi:
        return 0.0
    return min(abs(lo), abs(hi))


def _conds(forces: list[tuple[float, float]], atol: float) -> list[float]:
    """The candidate functions that :func:`_plan` reads, from the force
    bounds ``(lo, hi)`` at each breakpoint, ascending: ``lo - atol`` at
    each, then ``hi + atol`` at each, then ``hi - atol`` at the first and
    ``lo + atol`` at the last."""
    g, upper = [], []
    for lo, hi in forces:  # a loop, not two comprehensions: half the cost per solve
        g.append(lo - atol)
        upper.append(hi + atol)
    return g + upper + [forces[0][1] - atol, forces[-1][0] + atol]


def _plan(law: FrictionLaw, g: list[float]) -> list:
    """The candidate rule, written once: a solve's candidates in order, from
    the signs of its candidate functions ``g`` (:func:`_conds`).  A set of
    velocities is a pair of breakpoint indices (None for an infinite end), a
    root the index of its gap.  First each breakpoint where the force holds
    zero (``lo <= atol`` and ``hi >= -atol``); then per gap the root where
    the force falls through zero (``lo > atol`` at its left end, ``hi <
    -atol`` at its right), or the plateau where it is within tolerance on
    the whole gap; then each tail where it is constant and zero.  A tail
    holds no root: at the first breakpoint every piece-end velocity ``r -
    max(r)`` is <= 0 (IEEE subtraction is monotone), so every term of the
    force is >= 0, and at the last each is <= 0; without viscosity in the
    tail's direction the force is constant there.  The solution is the
    candidate closest to zero, the first of equals, a set entering as its
    element closest to zero and a root as :func:`_gap_root`.  :func:`_solve`
    evaluates every candidate, the fast paths only :func:`_settled` lists."""
    # A set holds zero where its lower function is <= 0 <= its upper one;
    # breakpoint k's are g[k] (lo - atol) and g[n + k] (hi + atol).
    n = (len(g) - 2) // 2
    plan: list = [(k, k) for k in range(n) if g[k] <= 0.0 <= g[n + k]]
    for k in range(n - 1):
        if g[k] > 0.0 and g[n + k + 1] < 0.0:  # lo > atol, then hi < -atol
            plan.append(k)
        elif g[k] <= 0.0 <= g[n + k + 1]:
            plan.append((k, k + 1))
    if law.mu_minus == 0.0 and g[2 * n] <= 0.0 <= g[n]:  # |hi| <= atol at the first
        plan.append((None, 0))
    if law.mu_plus == 0.0 and g[n - 1] <= 0.0 <= g[2 * n + 1]:  # |lo| <= atol at the last
        plan.append((n - 1, None))
    return plan


def _settled(law: FrictionLaw, g: list[float]) -> tuple | None:
    """What the fast paths take of :func:`_plan`'s list: ``("root", k)``
    where its one candidate is the root on gap ``k``, ``("sets", sets)``
    where every candidate is a set, else None: a list with no candidate, or
    with a root beside another, is left to :func:`_solve`."""
    plan = _plan(law, g)
    if not any(type(c) is int for c in plan):
        return ("sets", plan) if plan else None
    return ("root", plan[0]) if len(plan) == 1 else None


def _span(breaks, ends: tuple[int | None, int | None]):
    """The bounds in ``breaks`` (a list, or rows of an array) of a :func:`_plan` set."""
    i, j = ends
    return -math.inf if i is None else breaks[i], math.inf if j is None else breaks[j]


class _AffineStage:
    """The balance over a stage whose piece rates are constant and whose
    arc-lengths are affine in t, as :func:`_solve` sees it.  Both
    integrators use it: the default cycle integrator through
    :meth:`stretches`, the midpoint grid through :meth:`at`.

    The breakpoints ``-r`` are fixed over the stage, and at each of them the
    force bounds ``lo``/``hi``, like the acceptance tolerance ``atol``, are
    affine in t.  So is every function whose sign picks the solver's
    candidates (:func:`_conds`).  Between their roots the solution keeps
    one structure: a fixed breakpoint, plateau or tail value, or the root
    of the gap polynomial, whose coefficients are affine in t as well.
    ``conds`` holds those functions at both stage ends, or None where
    ``atol`` sits at its floor, which is not affine; ``atol`` is the larger
    of the two ends' tolerances.
    """

    def __init__(self, law: FrictionLaw, t0: float, t1: float, p0, p1) -> None:
        self.law, self.t0, self.t1, self.w, self.ends = law, t0, t1, t1 - t0, (p0, p1)
        self.conds: list[list[float]] | None = []
        self.atol = 0.0
        # both ends have the same rates, so the same breaks and velocity
        # scale: the force scale per unit length (times 1.0, exact) serves both
        self.breaks, _, per_length, _ = _breaks_and_scales(law, p0, 1.0)
        for pieces in self.ends:
            fscale = per_length * pieces[-1][1]  # _breaks_and_scales's product, bit for bit
            atol = _ACCEPT_RTOL * max(fscale, _ACCEPT_FLOOR)
            if not fscale >= _ACCEPT_FLOOR:
                self.conds = None
                return
            self.atol = max(self.atol, atol)
            self.conds.append(_conds([_force(law, pieces, b) for b in self.breaks], atol))

    def switches(self) -> list[float]:
        """Times inside the stage where a candidate function has a root."""
        out = set()
        for g0, g1 in zip(*self.conds):
            if (g0 < 0.0 < g1) or (g1 < 0.0 < g0):
                t = self.t0 + g0 / (g0 - g1) * self.w
                if self.t0 < t < self.t1:
                    out.add(t)
        return sorted(out)

    def at(self, t: float) -> list[float]:
        """The candidate functions at ``t``, interpolated from ``conds``."""
        th = (t - self.t0) / self.w
        return [a + th * (b - a) for a, b in zip(*self.conds)]

    def structure(self, t: float) -> tuple[str, float] | None:
        """``("const", x)`` or ``("root", gap index)`` where the solver's
        candidate rule picks one structure at ``t``, else None."""
        plan = _settled(self.law, self.at(t))
        if plan is None or plan[0] == "root":
            return plan
        return "const", min((_closest_to_zero(*_span(self.breaks, c)) for c in plan[1]), key=abs)

    def stretches(self) -> list[list]:
        """``[ta, tb, structure]`` per stretch of the stage: the stage cut at
        :meth:`switches`, each part taking the structure at its middle, and
        neighbours of one structure merged, since a switch may change only
        a candidate that the solver does not pick."""
        cuts = [self.t0, *self.switches(), self.t1]
        spans: list[list] = []
        for ta, tb in zip(cuts, cuts[1:]):
            found = self.structure(0.5 * (ta + tb))
            if spans and found is not None and spans[-1][2] == found:
                spans[-1][1] = tb
            else:
                spans.append([ta, tb, found])
        return spans

    def gap(self, k: int):
        """The coefficients ``(a, b, c)`` of the force on gap ``k`` as a
        function of t."""
        probe = 0.5 * (self.breaks[k] + self.breaks[k + 1])
        (a0, b0, c0), (a1, b1, c1) = (_segment_poly(self.law, p, probe) for p in self.ends)
        t0, t1, w, da, db, dc = self.t0, self.t1, self.w, a1 - a0, b1 - b0, c1 - c0

        def coefficients(t: float) -> tuple[float, float, float]:
            # from the nearer end, where a coefficient that nearly vanishes
            # (a body shrinking to nothing) keeps its relative accuracy
            if t - t0 <= t1 - t:
                th = (t - t0) / w
                return a0 + th * da, b0 + th * db, c0 + th * dc
            th = (t1 - t) / w
            return a1 - th * da, b1 - th * db, c1 - th * dc

        return coefficients
