"""Independent reference computations used to cross-check the library.

Everything here deliberately avoids the code paths under test: forces are
integrated by brute-force sampling of the pointwise law, balance roots are
found by interval bisection, and the closed-form displacement expressions
are retyped in their published (orientation-normalized / logarithmic) form
rather than reusing the library's stable rearrangements.  Where a fast path
was rewritten, its previous version is kept here verbatim as the reference.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

from dircrawl.balance import (
    _ACCEPT_FLOOR,
    _ACCEPT_RTOL,
    _DISC_RTOL,
    _RESIDUAL_RTOL,
    _ROOT_SLACK,
    _STICK_RTOL,
    _WHOLE_BODY_RTOL,
    SLIDING,
    STICK_SLIP,
    WHOLE_BODY_STICK,
    _force,
    _Pieces,
    _segment_poly,
)
from dircrawl.body import PiecewiseAffineShape, ShapeRate
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw, evaluate


def random_law(
    rng: random.Random,
    tau_range=(0.05, 5.0),
    mu_range=(0.05, 5.0),
    min_mu_gap: float = 0.0,
) -> FrictionLaw:
    while True:
        law = FrictionLaw(
            rng.uniform(*tau_range),
            rng.uniform(*tau_range),
            rng.uniform(*mu_range),
            rng.uniform(*mu_range),
        )
        if abs(law.mu_minus - law.mu_plus) >= min_mu_gap:
            return law


def breather_shape_rate(l: float, ldot: float, L: float = 1.0):
    shape = PiecewiseAffineShape((0.0, L), (0.0, l))
    rate = ShapeRate((0.0, L), ((0.0, ldot),))
    return shape, rate


def shape_value(shape: PiecewiseAffineShape, X: float) -> float:
    """s(X) by piecewise-affine interpolation in the reference coordinate."""
    ref, arc = shape.ref, shape.arc
    if not ref[0] <= X <= ref[-1]:
        raise ValueError(f"X={X} outside [0, {ref[-1]}]")
    for i in range(len(ref) - 1):
        if X <= ref[i + 1]:
            theta = (X - ref[i]) / (ref[i + 1] - ref[i])
            return arc[i] + theta * (arc[i + 1] - arc[i])
    return arc[-1]


def point_velocity(
    shape: PiecewiseAffineShape, rate: ShapeRate, x1dot: float, s: float
) -> float:
    """Velocity of the material point at arc-length ``s``: the left end's
    velocity plus the rate field, affine on each interval and
    right-continuous at the nodes."""
    arc = shape.arc
    i = min(max(bisect_right(arc, s) - 1, 0), len(arc) - 2)
    r0, r1 = rate.seg_rates[i]
    return x1dot + (r0 + (s - arc[i]) / (arc[i + 1] - arc[i]) * (r1 - r0))


def quad_force(law, shape, rate, x1dot: float, n: int = 4000) -> float:
    """Midpoint-rule integral of the pointwise friction law over the body.

    Only valid at velocities where no positive-length part of the body is
    exactly at rest (the sampled law is then single-valued a.e.).
    """
    assert shape.ref == rate.ref
    l = shape.length
    h = l / n
    total = 0.0
    for i in range(n):
        s = (i + 0.5) * h
        v = point_velocity(shape, rate, x1dot, s)
        fv = evaluate(law, v)
        total += fv.lo * h  # point value except on a measure-zero set
    return total


def bisect_velocity(law, shape, rate, tol: float = 1e-14, maxit: int = 200) -> float:
    """Balance root by interval bisection on the monotone set-valued force."""
    from dircrawl.balance import total_force

    rates = [r for pair in rate.seg_rates for r in pair]
    lo = -max(rates) - 1.0
    hi = -min(rates) + 1.0
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        fv = total_force(law, shape, rate, mid)
        if fv.contains(0.0):
            return mid
        if fv.lo > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def least_resistance_orientation(law: FrictionLaw) -> FrictionLaw:
    """The law with its axis oriented so that ``mu_minus > mu_plus``, or
    ``mu_minus == mu_plus`` and ``tau_minus >= tau_plus``: the orientation
    :func:`normalized_root_velocity` requires."""
    if (law.mu_minus, law.tau_minus) >= (law.mu_plus, law.tau_plus):
        return law
    return FrictionLaw(law.tau_plus, law.tau_minus, law.mu_plus, law.mu_minus)


def normalized_root_velocity(law: FrictionLaw, ldot: float) -> float:
    """Closed-form breather velocity in the least-resistance orientation.

    Requires ``mu_minus > mu_plus`` (distinct-viscosity branch) or
    ``mu_minus == mu_plus`` with ``tau_minus >= tau_plus`` (linear branch);
    retyped independently of the library's general directional-pair form.
    """
    tm_, tp_ = law.tau_minus, law.tau_plus
    mm_, mp_ = law.mu_minus, law.mu_plus
    if mm_ == mp_:
        mu = mm_
        if ldot > 0.0:
            return ((tm_ - tp_) / (tm_ + tp_ + mu * ldot) - 1.0) * 0.5 * ldot
        return -(1.0 + (tm_ - tp_) / (tm_ + tp_ - mu * ldot)) * 0.5 * ldot
    if mm_ < mp_:
        raise ValueError("law not in normalized orientation")
    if ldot > 0.0:
        disc = mm_ * mp_ + ((tm_ + tp_) / ldot) ** 2 + (2.0 / ldot) * (
            mm_ * tp_ + mp_ * tm_
        )
        return (mp_ + (tm_ + tp_) / ldot - math.sqrt(disc)) / (mm_ - mp_) * ldot
    disc = mm_ * mp_ + ((tm_ + tp_) / ldot) ** 2 - (2.0 / ldot) * (
        mm_ * tp_ + mp_ * tm_
    )
    return (mm_ + (tm_ + tp_) / abs(ldot) - math.sqrt(disc)) / (mp_ - mm_) * ldot


def literal_sliding_stages(law, epsilon, c, delta, L):
    """Published log-form stage displacements for an admissible sliding
    extension wave (tau_plus == 0, distinct viscosity combination)."""
    tb, mb = law.tau_minus, law.mu_minus
    mf = law.mu_plus
    e = epsilon
    d = (1.0 + e) * mb - mf
    if d == 0.0:
        raise ValueError("log form degenerates; use the starred expressions")
    log_term = math.log(L * mf / (delta * (1.0 + e) * mb + (L - delta) * mf))
    enter = delta * ((1.0 + e) * tb + mf * e * c) / (c * d) + L * (1.0 + e) * (
        tb + mb * e * c
    ) * mf / (c * d * d) * log_term
    inside = (
        delta
        * (L - delta)
        * (tb + mb * e * c)
        * (1.0 + e)
        / (delta * (1.0 + e) * mb * c + (L - delta) * mf * c)
    )
    exit_ = delta * (1.0 + e) * (tb + mb * e * c) / (c * d) + L * (1.0 + e) * (
        tb + mb * e * c
    ) * mf / (c * d * d) * log_term
    return enter, inside, exit_


def starred_sliding_stages(law, epsilon, c, delta, L):
    """Displacements on the locus where the stretched region's viscosity
    matches the rest of the body ((1+eps)*mu_minus == mu_plus)."""
    tb = law.tau_minus
    mf = law.mu_plus
    e = epsilon
    enter = -e * delta + delta * delta * e / (2.0 * L) + delta * delta * (
        1.0 + e
    ) * tb / (2.0 * L * mf * c)
    exit_ = delta * delta * e / (2.0 * L) + delta * delta * (1.0 + e) * tb / (
        2.0 * L * mf * c
    )
    inside = (
        delta
        * (L - delta)
        * (tb + law.mu_minus * e * c)
        * (1.0 + e)
        / (delta * (1.0 + e) * law.mu_minus * c + (L - delta) * mf * c)
    )
    return enter, inside, exit_


def newtonian_sliding_literal(beta, epsilon, delta, L):
    """Published closed form for extension waves on Newtonian substrates."""
    b2 = beta * beta
    e = epsilon
    d = (1.0 + e) * b2 - 1.0
    if d == 0.0:
        raise ValueError("log form degenerates")
    return (
        delta * e * ((1.0 + e) * b2 + 1.0) / d
        + delta * (L - delta) * (1.0 + e) * e * b2 / (delta * (1.0 + e) * b2 + (L - delta))
        + 2.0 * L * (1.0 + e) * e * b2 / (d * d)
        * math.log(L / (delta * (1.0 + e) * b2 + (L - delta)))
    )


def reference_simulate(law, gait, n_periods: int = 1, dt=None, x0: float = 0.0):
    """The scalar midpoint step loop that ``engine.simulate`` ran before it
    was batched: one ``solve_velocity`` per step, times built as Python
    floats.  Returns ``(times, x1, lengths, regimes)`` as lists.

    Kept verbatim (apart from the step cap) so that the batched kernel can
    be compared with it bit for bit.
    """
    from dircrawl.balance import solve_velocity

    T = gait.period
    if dt is None:
        dt = T / 2000
    corners = sorted({min(max(c, 0.0), T) for c in gait.corner_times()} | {0.0, T})
    period_times = [0.0]
    for a, b in zip(corners, corners[1:]):
        n = max(1, math.ceil((b - a) / dt - 1e-9))
        for j in range(1, n + 1):
            period_times.append(a + (b - a) * j / n)
    period_times[-1] = T
    times = [0.0]
    for p in range(n_periods):
        offset = p * T
        times.extend(offset + t for t in period_times[1:])

    x1 = [x0]
    lengths = [gait.shape_at(times[0]).length]
    regimes = []
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        tm = 0.5 * (t0 + t1)
        sol = solve_velocity(law, gait.shape_at(tm), gait.rate_at(tm))
        x1.append(x1[i] + sol.x1dot * (t1 - t0))
        lengths.append(gait.shape_at(t1).length)
        regimes.append(sol.regime)
    return times, x1, lengths, regimes


# ---------------------------------------------------------------------------
# The scalar balance solve before its single-pass rewrite, kept verbatim (with
# its two helpers) so that ``balance._solve`` can be compared with it bit for
# bit, except for its scale rule, which follows the solver's: no unit floor
# on ``vscale`` or on the root slack.  ``_force`` and ``_segment_poly`` did not
# change and are shared.
# ---------------------------------------------------------------------------


def reference_poly_roots_in(
    a: float, b: float, c: float, lo: float, hi: float
) -> list[float]:
    """Real roots of a*x^2 + b*x + c inside [lo, hi], numerically stable."""
    slack = _ROOT_SLACK * max(hi - lo, abs(lo), abs(hi))

    def keep(x: float) -> bool:
        return lo - slack <= x <= hi + slack

    if a == 0.0:
        if b == 0.0:
            return []
        x = -c / b
        return [x] if keep(x) else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc > -_DISC_RTOL * (b * b + abs(4.0 * a * c)):
            disc = 0.0
        else:
            return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    roots = [q / a, c / q] if q != 0.0 else [0.0]
    return [x for x in roots if keep(x)]


def reference_solve(
    law: FrictionLaw, pieces: _Pieces, l_total: float
) -> tuple[float, str, float, tuple[tuple[float, float], ...], tuple[int, ...]]:
    """:func:`solve_velocity` on plain pieces of total length ``l_total``:
    ``(x1dot, regime, residual, stick_intervals, signs)``, where ``signs``
    holds the sign (-1, 0 or 1) of ``x1dot + r`` at each piece end, in
    piece order.  The pieces are trusted to come from a valid shape."""
    rates_all = [r for p in pieces for r in (p[2], p[3])]
    vscale = max(abs(r) for r in rates_all)
    fscale = (
        law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * vscale
    ) * l_total
    if not math.isfinite(fscale):
        raise DegenerateSubstrateError("force scale overflows: no residual can be checked")
    atol = _ACCEPT_RTOL * max(fscale, _ACCEPT_FLOOR)

    breaks = sorted({-r for r in rates_all})
    fvals = [_force(law, pieces, b) for b in breaks]

    candidates: list[tuple[float, float]] = []

    for b, (lo, hi) in zip(breaks, fvals):
        if lo <= atol and hi >= -atol:
            candidates.append((b, b))

    for k in range(len(breaks) - 1):
        g0, g1 = breaks[k], breaks[k + 1]
        f_right_of_g0 = fvals[k][0]
        f_left_of_g1 = fvals[k + 1][1]
        if f_right_of_g0 > atol and f_left_of_g1 < -atol:
            a, bq, cq = _segment_poly(law, pieces, 0.5 * (g0 + g1))
            roots = reference_poly_roots_in(a, bq, cq, g0, g1)
            if not roots:
                raise DegenerateSubstrateError(
                    f"force changes sign between x1dot={g0!r} and {g1!r} but "
                    "its polynomial there has no root in floating point"
                )
            if len(roots) > 1:
                roots.sort(key=lambda x: _force_mag(_force(law, pieces, x)))
            candidates.append((roots[0], roots[0]))
        elif f_right_of_g0 <= atol and f_left_of_g1 >= -atol:
            candidates.append((g0, g1))  # force within tolerance on the whole gap

    # The tails hold no root: at breaks[0] every piece-end velocity
    # r - max(r) is <= 0 (IEEE subtraction is monotone), so every term of
    # the force is >= 0 and fvals[0] is never negative; at breaks[-1],
    # likewise, fvals[-1] is never positive.  Without viscosity in the
    # tail's direction the force is constant there, and when that constant
    # is zero the whole tail solves the balance.
    if abs(fvals[0][1]) <= atol and law.mu_minus == 0.0:
        candidates.append((-math.inf, breaks[0]))
    if abs(fvals[-1][0]) <= atol and law.mu_plus == 0.0:
        candidates.append((breaks[-1], math.inf))

    if not candidates:
        raise DegenerateSubstrateError(
            "force balance unresolved at this scale: no velocity balances "
            "the force in floating point"
        )

    x_star = min((_closest_to_zero(lo, hi) for lo, hi in candidates), key=abs)

    # Classify the velocity field at the solution.
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


# The fast paths' candidate rule as it stood before balance._plan returned
# the whole candidate list, kept verbatim: balance._settled must read the
# list to the same answer.
def reference_plan(law: FrictionLaw, g: list[float]) -> tuple | None:
    """The candidates of :func:`_solve`'s rule, from the signs of its
    candidate functions ``g`` laid out as ``_AffineStage.conds``: ``("root",
    k)`` where the one candidate is the root on gap ``k``, ``("sets", sets)``
    where all are sets, pairs of breakpoint indices (None for an infinite
    end) in ``_solve``'s order, else None (no candidate, or more than one
    with a root)."""
    n = (len(g) - 2) // 2
    lo_ok = [v <= 0.0 for v in g[:n]]  # lo <= atol
    hi_ok = [v >= 0.0 for v in g[n : 2 * n]]  # hi >= -atol
    sets: list[tuple[int | None, int | None]] = [(k, k) for k in range(n) if lo_ok[k] and hi_ok[k]]
    roots = []
    for k in range(n - 1):
        if g[k] > 0.0 and g[n + k + 1] < 0.0:  # lo > atol, then hi < -atol
            roots.append(k)
        elif lo_ok[k] and hi_ok[k + 1]:
            sets.append((k, k + 1))
    if law.mu_minus == 0.0 and hi_ok[0] and g[2 * n] <= 0.0:
        sets.append((None, 0))
    if law.mu_plus == 0.0 and lo_ok[-1] and g[2 * n + 1] >= 0.0:
        sets.append((n - 1, None))
    if roots:
        return ("root", roots[0]) if len(roots) == 1 and not sets else None
    return ("sets", sets) if sets else None


def reference_profile_stages(law: FrictionLaw, gait, tol: float) -> list[float]:
    """Stage integrals of a profile gait (``Breather``, ``ConstantLength``)
    by the per-node integrator that the default cycle path used on every
    law before it took one solve per rate sign on dry and Newtonian laws:
    ``adaptive_gauss`` over each corner span, with a reference solve at
    every node, keyed on the solution's regime and sign pattern."""
    from dircrawl import analytic

    def velocity(t: float):
        x, regime, _, _, signs = reference_solve(law, *gait._pieces_at(t))
        return x, (regime, signs)

    spans = analytic._corner_spans(gait.corner_times(), gait.period)
    return [analytic.adaptive_gauss(velocity, a, b, tol) for a, b in spans]
