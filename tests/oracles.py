"""Independent reference computations used to cross-check the library.

Everything here deliberately avoids the code paths under test: forces are
integrated by brute-force sampling of the pointwise law, balance roots are
found by interval bisection, and the closed-form displacement expressions
are retyped in their published (orientation-normalized / logarithmic) form
rather than reusing the library's stable rearrangements.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

from dircrawl.body import PiecewiseAffineShape, ShapeRate
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
