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
an interval).  The solution set of the balance is a closed interval; when it
has positive measure (dry plateaus, one-sided frictionless substrates) the
element closest to zero is returned, so that a vanishing force imbalance
produces no motion.

``solve_velocity_batch`` solves many shapes at once with numpy.  It makes
the same float operations as ``solve_velocity``, in the same order, so its
rows are bit-identical to the scalar solver's; rows it cannot settle that
way go to the scalar solver, which stays the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import PiecewiseAffineShape, ShapeRate
from .errors import DegenerateSubstrateError
from .friction import ForceValue, FrictionLaw

__all__ = [
    "SLIDING",
    "STICK_SLIP",
    "WHOLE_BODY_STICK",
    "REGIMES",
    "BalanceSolution",
    "BatchSolution",
    "total_force",
    "solve_velocity",
    "solve_velocity_batch",
]

SLIDING = "sliding"
STICK_SLIP = "stick_slip"
WHOLE_BODY_STICK = "whole_body_stick"
#: Regimes in the order of the codes ``solve_velocity_batch`` returns.
REGIMES = (SLIDING, STICK_SLIP, WHOLE_BODY_STICK)

_INF = math.inf
# Largest force residual accepted, relative to the solver's force scale.
_RESIDUAL_RTOL = 1e-9


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


def _pieces(
    shape: PiecewiseAffineShape, rate: ShapeRate
) -> list[tuple[float, float, float, float]]:
    if shape.ref != rate.ref:
        raise ValueError("shape and rate are defined on different node sets")
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
    tm, tp, mm, mp = law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus
    point_sum = 0.0
    static_len = 0.0
    for s0, s1, r0, r1 in _pieces(shape, rate):
        seg = s1 - s0
        v0 = x1dot + r0
        v1 = x1dot + r1
        if v0 == 0.0 and v1 == 0.0:
            static_len += seg
        elif v0 <= 0.0 and v1 <= 0.0:
            point_sum += tm * seg - mm * 0.5 * (v0 + v1) * seg
        elif v0 >= 0.0 and v1 >= 0.0:
            point_sum += -tp * seg - mp * 0.5 * (v0 + v1) * seg
        else:
            frac = v0 / (v0 - v1)
            len_a = frac * seg
            len_b = seg - len_a
            if v0 < 0.0:  # negative then positive
                point_sum += tm * len_a - mm * 0.5 * v0 * len_a
                point_sum += -tp * len_b - mp * 0.5 * v1 * len_b
            else:  # positive then negative
                point_sum += -tp * len_a - mp * 0.5 * v0 * len_a
                point_sum += tm * len_b - mm * 0.5 * v1 * len_b
    if static_len > 0.0:
        return ForceValue.interval(
            point_sum - tp * static_len, point_sum + tm * static_len
        )
    return ForceValue.point(point_sum)


def _segment_poly(
    law: FrictionLaw,
    pieces: list[tuple[float, float, float, float]],
    x_probe: float,
) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the total force a*x^2 + b*x + c, valid on
    the breakpoint-free segment containing ``x_probe``."""
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
        elif v0 < 0.0 < v1:
            k = seg / (r1 - r0)
            a += 0.5 * (mm - mp) * k
            b += (-tm - tp + mm * r0 - mp * r1) * k
            c += (-tm * r0 - tp * r1 + 0.5 * (mm * r0 * r0 - mp * r1 * r1)) * k
        elif v1 < 0.0 < v0:
            k = seg / (r0 - r1)
            a += 0.5 * (mm - mp) * k
            b += (-tm - tp - mp * r0 + mm * r1) * k
            c += (-tp * r0 - tm * r1 + 0.5 * (mm * r1 * r1 - mp * r0 * r0)) * k
        else:
            # a probe between two breakpoints that rounding put on one of them
            raise DegenerateSubstrateError(
                f"balance probe x1dot={x_probe!r} landed on a breakpoint: "
                "the shape's rates cannot be resolved at this scale"
            )
    return a, b, c


def _poly_roots_in(
    a: float, b: float, c: float, lo: float, hi: float
) -> list[float]:
    """Real roots of a*x^2 + b*x + c inside [lo, hi], numerically stable."""
    if math.isfinite(lo) and math.isfinite(hi):
        span = hi - lo
    else:
        span = max(abs(x) for x in (lo, hi) if math.isfinite(x)) if (
            math.isfinite(lo) or math.isfinite(hi)
        ) else 1.0
    slack = 1e-12 * max(span, 1.0)

    def keep(x: float) -> bool:
        return lo - slack <= x <= hi + slack

    if a == 0.0:
        if b == 0.0:
            return []
        x = -c / b
        return [x] if keep(x) else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc > -1e-12 * (b * b + abs(4.0 * a * c)):
            disc = 0.0
        else:
            return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    roots = [q / a, c / q] if q != 0.0 else [0.0]
    return [x for x in roots if keep(x)]


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
    represent the balance: no candidate is found, a bracket holds no root, or
    the force at the returned velocity is not finite or exceeds
    ``1e-9 * fscale`` (a real solution is within ~1e-15 of it).
    """
    pieces = _pieces(shape, rate)
    l_total = shape.length
    rates_all = [r for p in pieces for r in (p[2], p[3])]
    vscale = max(1.0, max(abs(r) for r in rates_all))
    fscale = (
        law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * vscale
    ) * l_total
    atol = 1e-13 * max(fscale, 1e-300)

    breaks = sorted({-r for r in rates_all})
    fvals = [total_force(law, shape, rate, b) for b in breaks]

    candidates: list[tuple[float, float]] = []

    for b, fv in zip(breaks, fvals):
        if fv.lo <= atol and fv.hi >= -atol:
            candidates.append((b, b))

    for k in range(len(breaks) - 1):
        g0, g1 = breaks[k], breaks[k + 1]
        f_right_of_g0 = fvals[k].lo
        f_left_of_g1 = fvals[k + 1].hi
        if f_right_of_g0 > atol and f_left_of_g1 < -atol:
            a, bq, cq = _segment_poly(law, pieces, 0.5 * (g0 + g1))
            roots = _poly_roots_in(a, bq, cq, g0, g1)
            if not roots:
                raise DegenerateSubstrateError(
                    f"force changes sign between x1dot={g0!r} and {g1!r} but "
                    "its polynomial there has no root in floating point"
                )
            if len(roots) > 1:
                roots.sort(key=lambda x: abs(_force_mag(law, shape, rate, x)))
            candidates.append((roots[0], roots[0]))
        elif f_right_of_g0 <= atol and f_left_of_g1 >= -atol:
            candidates.append((g0, g1))  # force within tolerance on the whole gap

    # Left tail: all velocities negative, force affine with slope -mu_minus*l.
    b0, f0 = breaks[0], fvals[0]
    if f0.hi < -atol:
        if law.mu_minus > 0.0:
            a, bq, cq = _segment_poly(law, pieces, b0 - 1.0 - abs(b0))
            roots = _poly_roots_in(a, bq, cq, -_INF, b0)
            if roots:
                candidates.append((roots[0], roots[0]))
    elif abs(f0.hi) <= atol and law.mu_minus == 0.0:
        candidates.append((-_INF, b0))

    # Right tail: all velocities positive, slope -mu_plus*l.
    b1, f1 = breaks[-1], fvals[-1]
    if f1.lo > atol:
        if law.mu_plus > 0.0:
            a, bq, cq = _segment_poly(law, pieces, b1 + 1.0 + abs(b1))
            roots = _poly_roots_in(a, bq, cq, b1, _INF)
            if roots:
                candidates.append((roots[0], roots[0]))
    elif abs(f1.lo) <= atol and law.mu_plus == 0.0:
        candidates.append((b1, _INF))

    if not candidates:
        raise DegenerateSubstrateError(
            "force balance has no solution: the substrate cannot resist the "
            "imposed shape change (unbounded sliding)"
        )

    x_star = min((_closest_to_zero(lo, hi) for lo, hi in candidates), key=abs)

    # Classify the velocity field at the solution.
    stick: list[tuple[float, float]] = []
    stick_tol = 1e-12 * vscale
    for s0, s1, r0, r1 in pieces:
        if r0 == r1 and abs(x_star + r0) <= stick_tol:
            if stick and stick[-1][1] == s0:
                stick[-1] = (stick[-1][0], s1)
            else:
                stick.append((s0, s1))
    stick_len = sum(hi - lo for lo, hi in stick)
    if stick_len >= l_total * (1.0 - 1e-12):
        regime = WHOLE_BODY_STICK
    elif stick:
        regime = STICK_SLIP
    else:
        regime = SLIDING

    residual = _force_mag(law, shape, rate, x_star)
    if not (math.isfinite(residual) and residual <= _RESIDUAL_RTOL * fscale):
        raise DegenerateSubstrateError(
            f"force balance unresolved at this scale: residual {residual!r} "
            f"at x1dot={x_star!r} against a force scale of {fscale!r}"
        )
    return BalanceSolution(
        x1dot=x_star,
        regime=regime,
        residual=residual,
        stick_intervals=tuple(stick),
    )


@dataclass(frozen=True)
class BatchSolution:
    """Rows of :class:`BalanceSolution` as arrays: ``regime`` holds indices
    into :data:`REGIMES`.  Stick intervals are not reported."""

    x1dot: np.ndarray
    regime: np.ndarray
    residual: np.ndarray


def solve_velocity_batch(
    law: FrictionLaw, arcs: np.ndarray, rates: np.ndarray
) -> BatchSolution:
    """``solve_velocity`` for every row of a block of shapes.

    ``arcs`` holds nodal arc-lengths ``(n, P + 1)`` and ``rates`` per-piece
    end rates ``(n, P, 2)``, as :func:`dircrawl.body.sample` returns them,
    rows padded at the end by zero-length pieces that repeat the last node
    and rate; the padding changes nothing.  Each row equals what
    ``solve_velocity`` returns for that shape, bit for bit: the candidate
    search is the scalar one, evaluated for all rows at once with the same
    float operations in the same order, and sums are accumulated in piece
    order.  A row where that search is not conclusive (a probe on a
    breakpoint, a bracket without exactly one root, no candidate, or a
    residual the scalar solver rejects) is handed to ``solve_velocity``
    itself, which also raises its errors.
    """
    n = arcs.shape[0]
    # Rows run along the last axis of every array below, so that numpy's
    # inner loops run over the block; pieces, breakpoints and candidates
    # run along the first.
    arc = np.ascontiguousarray(arcs.T)
    rate = np.ascontiguousarray(rates.transpose(1, 2, 0))
    s0, s1 = arc[:-1], arc[1:]
    seg = s1 - s0
    r0, r1 = rate[:, 0], rate[:, 1]
    l_total = arc[-1]
    flat = rate.reshape(-1, n)  # every rate, in the scalar's order
    vscale = np.maximum(1.0, np.abs(flat).max(axis=0))
    with np.errstate(all="ignore"):
        fscale = (
            law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * vscale
        ) * l_total
        atol = 1e-13 * np.maximum(fscale, 1e-300)
        # A breakpoint repeated within a row only repeats a candidate that
        # comes earlier in the scalar order, so the choice is unchanged:
        # rates that repeat another in every row are dropped, and the
        # remaining repeats need no dedup.
        distinct = [
            j for j in range(len(flat))
            if not any(np.array_equal(flat[j], flat[i]) for i in range(j))
        ]
        breaks = np.sort(-flat[distinct], axis=0)
        pieces = (seg[:, None], r0[:, None], r1[:, None])

        f_lo, f_hi = _total_force_rows(law, *pieces, breaks)

        # Polynomials on the left tail, each gap and the right tail.
        b0, b1 = breaks[:1], breaks[-1:]
        probes = np.concatenate(
            [b0 - 1.0 - np.abs(b0), 0.5 * (breaks[:-1] + breaks[1:]), b1 + 1.0 + np.abs(b1)]
        )
        lo = np.concatenate([np.full_like(b0, -_INF), breaks])
        hi = np.concatenate([breaks, np.full_like(b1, _INF)])
        span = np.concatenate([np.abs(b0), breaks[1:] - breaks[:-1], np.abs(b1)])
        a, bq, cq, on_break = _segment_poly_rows(law, *pieces, probes)
        root, n_roots = _poly_roots_rows(a, bq, cq, lo, hi, span)
        root = _closest_to_zero_rows(root, root)

        # Candidates in the scalar order: breakpoints, gaps, left, right tail.
        fr, fl = f_lo[:-1], f_hi[1:]
        bracket = (fr > atol) & (fl < -atol)
        f0, f1 = f_hi[0], f_lo[-1]
        left_root = (f0 < -atol) & (law.mu_minus > 0.0)
        left_flat = (np.abs(f0) <= atol) & (law.mu_minus == 0.0)
        right_root = (f1 > atol) & (law.mu_plus > 0.0)
        right_flat = (np.abs(f1) <= atol) & (law.mu_plus == 0.0)
        values = np.concatenate(
            [
                _closest_to_zero_rows(breaks, breaks),
                np.where(bracket, root[1:-1], _closest_to_zero_rows(breaks[:-1], breaks[1:])),
                np.where(left_root, root[0], _closest_to_zero_rows(-_INF, breaks[0]))[None],
                np.where(right_root, root[-1], _closest_to_zero_rows(breaks[-1], _INF))[None],
            ]
        )
        valid = np.concatenate(
            [
                (f_lo <= atol) & (f_hi >= -atol),
                bracket | (fr <= atol) & (fl >= -atol),
                (left_root & (n_roots[0] > 0) | left_flat)[None],
                (right_root & (n_roots[-1] > 0) | right_flat)[None],
            ]
        )
        rare = (
            (bracket & (on_break[1:-1] | (n_roots[1:-1] != 1))).any(axis=0)
            | left_root & on_break[0]
            | right_root & on_break[-1]
            | ~valid.any(axis=0)
            | (valid & ~np.isfinite(values)).any(axis=0)
        )
        # np.argmin takes the first minimum, as min(..., key=abs) does.
        x = values[np.argmin(np.where(valid, np.abs(values), _INF), axis=0), np.arange(n)]

        # Classify the velocity field at the solution; padding never sticks.
        sticks = (r0 == r1) & (np.abs(x + r0) <= 1e-12 * vscale) & (seg > 0.0)
        stick_len = np.zeros(n)
        run_lo = np.zeros(n)
        for j in range(len(sticks)):
            starts = sticks[j] & ~sticks[j - 1] if j > 0 else sticks[j]
            run_lo = np.where(starts, s0[j], run_lo)
            ends = sticks[j] & ~sticks[j + 1] if j + 1 < len(sticks) else sticks[j]
            stick_len = np.where(ends, stick_len + (s1[j] - run_lo), stick_len)
        regime = np.where(
            stick_len >= l_total * (1.0 - 1e-12), 2, np.where(sticks.any(axis=0), 1, 0)
        ).astype(np.int8)

        x_lo, x_hi = (f[0] for f in _total_force_rows(law, *pieces, x[None]))
        residual = np.where(
            (x_lo <= 0.0) & (0.0 <= x_hi), 0.0, np.minimum(np.abs(x_lo), np.abs(x_hi))
        )
        rare |= ~(np.isfinite(residual) & (residual <= _RESIDUAL_RTOL * fscale))

    for i in np.flatnonzero(rare).tolist():
        real = np.flatnonzero(seg[:, i] > 0.0)
        nodes = tuple(arcs[i, [0, *(real + 1).tolist()]].tolist())
        pairs = tuple(tuple(pair) for pair in rates[i, real].tolist())
        sol = solve_velocity(law, PiecewiseAffineShape(nodes, nodes), ShapeRate(nodes, pairs))
        x[i] = sol.x1dot
        regime[i] = REGIMES.index(sol.regime)
        residual[i] = sol.residual
    return BatchSolution(x1dot=x, regime=regime, residual=residual)


def _total_force_rows(
    law: FrictionLaw, seg: np.ndarray, r0: np.ndarray, r1: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``total_force`` of each row's pieces (``seg``, ``r0``, ``r1`` shaped
    ``(P, 1, n)``) at each ``x[m, i]``: bounds ``(lo, hi)`` shaped like ``x``.

    Each piece adds the scalar's one or two terms, in piece order; a piece
    with one term adds 0.0 in place of the second, which changes no partial
    sum (they start at +0.0, so none is -0.0).
    """
    tm, tp, mm, mp = law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus
    v0 = x + r0
    v1 = x + r1
    static = (v0 == 0.0) & (v1 == 0.0)
    neg = (v0 <= 0.0) & (v1 <= 0.0) & ~static
    pos = (v0 >= 0.0) & (v1 >= 0.0) & ~static
    len_a = v0 / (v0 - v1) * seg
    len_b = seg - len_a
    up = v0 < 0.0  # a crossing from negative to positive
    first = np.where(
        neg,
        tm * seg - mm * 0.5 * (v0 + v1) * seg,
        np.where(
            pos,
            -tp * seg - mp * 0.5 * (v0 + v1) * seg,
            np.where(up, tm * len_a - mm * 0.5 * v0 * len_a, -tp * len_a - mp * 0.5 * v0 * len_a),
        ),
    )
    second = np.where(up, -tp * len_b - mp * 0.5 * v1 * len_b, tm * len_b - mm * 0.5 * v1 * len_b)
    one_term = neg | pos | static
    point_sum = np.zeros(x.shape)
    for j in range(len(first)):
        point_sum = point_sum + np.where(static[j], 0.0, first[j])
        point_sum = point_sum + np.where(one_term[j], 0.0, second[j])
    static_len = _ordered_sum(np.where(static, seg, 0.0))
    has_static = static_len > 0.0
    return (
        np.where(has_static, point_sum - tp * static_len, point_sum),
        np.where(has_static, point_sum + tm * static_len, point_sum),
    )


def _segment_poly_rows(
    law: FrictionLaw, seg: np.ndarray, r0: np.ndarray, r1: np.ndarray, x_probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_segment_poly`` at each probe ``x_probe[m, i]``: coefficients
    ``a, b, c`` plus a mask of the probes that landed on a breakpoint."""
    tm, tp, mm, mp = law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus
    v0 = x_probe + r0
    v1 = x_probe + r1
    neg = (v0 < 0.0) & (v1 < 0.0)
    pos = (v0 > 0.0) & (v1 > 0.0)
    up = (v0 < 0.0) & (0.0 < v1)
    down = (v1 < 0.0) & (0.0 < v0)
    k = np.where(up, seg / (r1 - r0), seg / (r0 - r1))
    one_sign = neg | pos
    a = np.where(one_sign, 0.0, 0.5 * (mm - mp) * k)
    b = np.where(
        neg,
        -mm * seg,
        np.where(
            pos,
            -mp * seg,
            np.where(up, (-tm - tp + mm * r0 - mp * r1) * k, (-tm - tp - mp * r0 + mm * r1) * k),
        ),
    )
    c = np.where(
        neg,
        tm * seg - mm * 0.5 * (r0 + r1) * seg,
        np.where(
            pos,
            -tp * seg - mp * 0.5 * (r0 + r1) * seg,
            np.where(
                up,
                (-tm * r0 - tp * r1 + 0.5 * (mm * r0 * r0 - mp * r1 * r1)) * k,
                (-tp * r0 - tm * r1 + 0.5 * (mm * r1 * r1 - mp * r0 * r0)) * k,
            ),
        ),
    )
    on_break = ~(one_sign | up | down).all(axis=0)
    return _ordered_sum(a), _ordered_sum(b), _ordered_sum(c), on_break


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis from +0.0, left to right, as the scalar
    ``+=`` loops add (``np.sum`` adds pairwise)."""
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total = total + term
    return total


def _poly_roots_rows(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray, span: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_poly_roots_in`` elementwise, with the span it derives from
    ``lo``/``hi`` passed in: the first root kept, and how many were kept."""
    slack = 1e-12 * np.maximum(span, 1.0)

    def keep(x: np.ndarray) -> np.ndarray:
        return (lo - slack <= x) & (x <= hi + slack)

    x_lin = -c / b
    disc = b * b - 4.0 * a * c
    near = (disc < 0.0) & (disc > -1e-12 * (b * b + np.abs(4.0 * a * c)))
    disc = np.where(near, 0.0, disc)
    sq = np.sqrt(disc)
    q = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), -0.5 * sq)
    x1 = np.where(q != 0.0, q / a, 0.0)  # q == 0 leaves the single root 0.0
    x2 = c / q
    keep1 = keep(x1)
    keep2 = (q != 0.0) & keep(x2)
    linear = a == 0.0
    first = np.where(linear, x_lin, np.where(keep1, x1, x2))
    n_roots = np.where(
        linear,
        np.where(b == 0.0, 0, keep(x_lin)),
        np.where(disc < 0.0, 0, keep1.astype(int) + keep2),
    )
    return first, n_roots


def _closest_to_zero_rows(lo, hi) -> np.ndarray:
    return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.where(hi < 0.0, hi, lo))


def _closest_to_zero(lo: float, hi: float) -> float:
    if lo <= 0.0 <= hi:
        return 0.0
    return hi if hi < 0.0 else lo


def _force_mag(
    law: FrictionLaw, shape: PiecewiseAffineShape, rate: ShapeRate, x: float
) -> float:
    fv = total_force(law, shape, rate, x)
    if fv.contains(0.0):
        return 0.0
    return min(abs(fv.lo), abs(fv.hi))
