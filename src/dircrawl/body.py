"""Kinematics of a shape-controlled one-dimensional crawler.

The body occupies reference coordinates ``X in [0, L]``.  Its configuration
at time ``t`` is ``x(X, t) = x1(t) + s(X, t)`` where ``x1`` is the position
of the left end and the arc-length map ``s`` is piecewise affine, strictly
increasing, with ``s(0, t) == 0``.  A gait program prescribes ``s`` (and its
time rate) periodically in time; the force balance then determines ``x1``.

Rates are stored per interval as one-sided end values because traveling-wave
gaits produce velocity fields that jump at the wave fronts; for smooth gaits
the pairs are simply continuous nodal values.  The pointwise rate at ``X = 0``
is always zero (the arc-length origin is pinned to the left end).

Besides ``shape_at``/``rate_at`` for one time, every gait has ``sample``,
which evaluates a block of times at once as arrays (see :func:`sample`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

__all__ = [
    "PiecewiseAffineShape",
    "ShapeRate",
    "BodyState",
    "Breather",
    "ConstantLength",
    "TwoSegmentPath",
    "CompositeStride",
    "SquareWave",
    "GaitProgram",
    "shape_at",
    "rate_at",
    "sample",
    "length",
    "eulerian_velocity",
    "zero_crossings",
]


@dataclass(frozen=True)
class PiecewiseAffineShape:
    """Nodal representation of the arc-length map ``s(X)``.

    ``ref`` holds the node coordinates in the reference body (starting at 0),
    ``arc`` the current arc-length of each node (starting at 0).  Both are
    strictly increasing, which keeps the deformation one-to-one.
    """

    ref: tuple[float, ...]
    arc: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.ref) != len(self.arc) or len(self.ref) < 2:
            raise ValueError("shape needs matching ref/arc node lists with >= 2 nodes")
        if self.ref[0] != 0.0 or self.arc[0] != 0.0:
            raise ValueError("first node must be (0, 0)")
        for i in range(len(self.ref) - 1):
            if not self.ref[i + 1] > self.ref[i]:
                raise ValueError("reference coordinates must be strictly increasing")
            if not self.arc[i + 1] > self.arc[i]:
                raise ValueError("arc-lengths must be strictly increasing")

    @property
    def ref_length(self) -> float:
        return self.ref[-1]

    @property
    def length(self) -> float:
        return self.arc[-1]


@dataclass(frozen=True)
class ShapeRate:
    """Time rate of the arc-length map on the same node set as a shape.

    ``seg_rates[i]`` holds the rate at the left and right end of interval
    ``i``; the two values differ from the neighbouring interval's when the
    rate field jumps at the node (traveling waves).  At a gait corner time
    the rate is the right-sided one.
    """

    ref: tuple[float, ...]
    seg_rates: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.seg_rates) != len(self.ref) - 1:
            raise ValueError("need exactly one rate pair per node interval")

    @classmethod
    def from_nodal(cls, ref: tuple[float, ...], values: tuple[float, ...]) -> "ShapeRate":
        """Build a continuous rate field from plain nodal values."""
        if len(values) != len(ref):
            raise ValueError("need one nodal rate per node")
        pairs = tuple((values[i], values[i + 1]) for i in range(len(ref) - 1))
        return cls(ref, pairs)


@dataclass(frozen=True)
class BodyState:
    """Position of the body: left end plus current shape."""

    x1: float
    shape: PiecewiseAffineShape

    @property
    def x2(self) -> float:
        return self.x1 + self.shape.length


def _check_same_nodes(shape: PiecewiseAffineShape, rate: ShapeRate) -> None:
    if shape.ref != rate.ref:
        raise ValueError("shape and rate are defined on different node sets")


# ---------------------------------------------------------------------------
# Gait programs
# ---------------------------------------------------------------------------


def _bump(rest: float, delta: float, period: float, t: float) -> float:
    return rest + delta * math.sin(math.pi * t / period) ** 2


def _bump_rate(delta: float, period: float, t: float) -> float:
    return delta * (math.pi / period) * math.sin(2.0 * math.pi * t / period)


def _require_finite(gait: GaitProgram) -> None:
    """Raise ``ValueError`` naming the first number among the gait's fields,
    or inside a tuple field, that is not finite."""
    for f in fields(gait):
        value = getattr(gait, f.name)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, v in items:
            if isinstance(v, (int, float)) and not math.isfinite(v):
                where = f.name if i is None else f"{f.name}[{i}]"
                raise ValueError(f"{where} must be finite, got {v!r}")


class _ProfileGait:
    """A shape driven by one length profile ``p(t)``: the body length of a
    :class:`Breather`, the first segment's length of a :class:`ConstantLength`.
    """

    def _check_profile(self, rest: float) -> None:
        """Checks shared by both gaits; ``rest`` is the default bump's value
        at t = 0, kept as ``_rest`` (read on every profile evaluation)."""
        _require_finite(self)
        if self.ref_length <= 0.0 or self.period <= 0.0:
            raise ValueError("ref_length and period must be positive")
        if (self.profile is None) != (self.profile_rate is None):
            raise ValueError("supply both profile and profile_rate, or neither")
        object.__setattr__(self, "_rest", rest)

    def _value(self, t: float) -> float:
        tm = t % self.period
        if self.profile is not None:
            return self.profile(tm)
        return _bump(self._rest, self.delta, self.period, tm)

    def _rate(self, t: float) -> float:
        tm = t % self.period
        if self.profile_rate is not None:
            return self.profile_rate(tm)
        return _bump_rate(self.delta, self.period, tm)

    def corner_times(self) -> tuple[float, ...]:
        if self.corners is not None:
            return self.corners
        if self.profile is not None:
            return (0.0, self.period)
        return (0.0, 0.5 * self.period, self.period)

    def monotone_corners(self) -> tuple[float, ...] | None:
        """Times splitting the profile into monotone pieces, when known."""
        return None if self.corners is None and self.profile is not None else self.corner_times()

    def _sample_profile(
        self, times: np.ndarray, valid: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Profile values at ``times``, checked with ``valid``, and rates."""
        ts = times.tolist()
        p = np.array([self._value(t) for t in ts], dtype=float)
        _require_valid(self, times, valid(p))
        return p, np.array([self._rate(t) for t in ts], dtype=float)


@dataclass(frozen=True)
class Breather(_ProfileGait):
    """One-segment crawler deforming affinely; shape fully described by its
    length ``l(t)``.

    The default profile is a smooth elongation/contraction bump
    ``l(t) = ref_length + delta * sin^2(pi t / period)``; a custom profile
    can be supplied as a pair of callables (length and its time derivative),
    optionally with the times where the rate changes sign (``corners``).
    """

    ref_length: float
    delta: float
    period: float
    profile: Callable[[float], float] | None = None
    profile_rate: Callable[[float], float] | None = None
    corners: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        self._check_profile(self.ref_length)
        if self.delta <= -self.ref_length:
            raise ValueError("delta must exceed -ref_length so the length stays positive")

    length_at = _ProfileGait._value
    length_rate_at = _ProfileGait._rate

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        l = self.length_at(t)
        if l <= 0.0:
            raise ValueError(f"profile produced non-positive length {l} at t={t}")
        return PiecewiseAffineShape((0.0, self.ref_length), (0.0, l))

    def rate_at(self, t: float) -> ShapeRate:
        ldot = self.length_rate_at(t)
        ref = (0.0, self.ref_length)
        return ShapeRate(ref, ((0.0, ldot),))

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        l, ldot = self._sample_profile(times, lambda l: l > 0.0)
        arcs = np.zeros((len(l), 2))
        arcs[:, 1] = l
        rates = np.zeros((len(l), 1, 2))
        rates[:, 0, 1] = ldot
        return arcs, rates


@dataclass(frozen=True)
class ConstantLength(_ProfileGait):
    """Two adjacent segments whose lengths sum to the fixed total
    ``ref_length``; the single shape parameter is the first segment's length.

    Default profile: ``l1(t) = seg1_rest + delta * sin^2(pi t / period)``.
    """

    ref_length: float
    split: float
    seg1_rest: float
    delta: float
    period: float
    profile: Callable[[float], float] | None = None
    profile_rate: Callable[[float], float] | None = None
    corners: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        self._check_profile(self.seg1_rest)
        if not 0.0 < self.split < self.ref_length:
            raise ValueError("split must lie strictly inside (0, ref_length)")
        lo = min(self.seg1_rest, self.seg1_rest + self.delta)
        hi = max(self.seg1_rest, self.seg1_rest + self.delta)
        if self.profile is None and not (0.0 < lo and hi < self.ref_length):
            raise ValueError("first segment length must stay inside (0, ref_length)")

    seg1_length_at = _ProfileGait._value
    seg1_rate_at = _ProfileGait._rate

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        l1 = self.seg1_length_at(t)
        if not 0.0 < l1 < self.ref_length:
            raise ValueError(f"profile produced l1={l1} outside (0, {self.ref_length})")
        return PiecewiseAffineShape(
            (0.0, self.split, self.ref_length), (0.0, l1, self.ref_length)
        )

    def rate_at(self, t: float) -> ShapeRate:
        l1dot = self.seg1_rate_at(t)
        ref = (0.0, self.split, self.ref_length)
        return ShapeRate(ref, ((0.0, l1dot), (l1dot, 0.0)))

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        l1, l1dot = self._sample_profile(
            times, lambda l1: (0.0 < l1) & (l1 < self.ref_length)
        )
        arcs = np.zeros((len(l1), 3))
        arcs[:, 1] = l1
        arcs[:, 2] = self.ref_length
        rates = np.zeros((len(l1), 2, 2))
        rates[:, 0, 1] = l1dot
        rates[:, 1, 0] = l1dot
        return arcs, rates


@dataclass(frozen=True)
class TwoSegmentPath:
    """Two-segment crawler following a piecewise-linear closed path in
    segment-length space.

    ``times`` start at 0 and end at the period; ``l1``/``l2`` give the
    segment lengths at those instants and are interpolated linearly in
    between.  The path must close (first and last point equal) so the gait
    is periodic.
    """

    ref_length: float
    split: float
    times: tuple[float, ...]
    l1: tuple[float, ...]
    l2: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite(self)
        n = len(self.times)
        if n < 2 or len(self.l1) != n or len(self.l2) != n:
            raise ValueError("times, l1 and l2 must have equal length >= 2")
        if self.times[0] != 0.0:
            raise ValueError("path must start at t = 0")
        for i in range(n - 1):
            if not self.times[i + 1] > self.times[i]:
                raise ValueError("times must be strictly increasing")
        if any(v <= 0.0 for v in self.l1) or any(v <= 0.0 for v in self.l2):
            raise ValueError("segment lengths must stay positive")
        if self.l1[0] != self.l1[-1] or self.l2[0] != self.l2[-1]:
            raise ValueError("path must close: first and last shape point equal")
        if not 0.0 < self.split < self.ref_length:
            raise ValueError("split must lie strictly inside (0, ref_length)")

    @property
    def period(self) -> float:
        return self.times[-1]

    def corner_times(self) -> tuple[float, ...]:
        return self.times

    def _locate(self, t: float) -> tuple[int, float]:
        tm = t % self.period
        k = min(bisect_right(self.times, tm) - 1, len(self.times) - 2)
        theta = (tm - self.times[k]) / (self.times[k + 1] - self.times[k])
        return k, theta

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        k, theta = self._locate(t)
        l1 = self.l1[k] + theta * (self.l1[k + 1] - self.l1[k])
        l2 = self.l2[k] + theta * (self.l2[k + 1] - self.l2[k])
        return PiecewiseAffineShape(
            (0.0, self.split, self.ref_length), (0.0, l1, l1 + l2)
        )

    def rate_at(self, t: float) -> ShapeRate:
        k, _ = self._locate(t)
        dt = self.times[k + 1] - self.times[k]
        l1dot = (self.l1[k + 1] - self.l1[k]) / dt
        l2dot = (self.l2[k + 1] - self.l2[k]) / dt
        ref = (0.0, self.split, self.ref_length)
        pairs = ((0.0, l1dot), (l1dot, l1dot + l2dot))
        return ShapeRate(ref, pairs)

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # _locate, shape_at and rate_at on arrays, operation for operation
        T = np.asarray(self.times, dtype=float)
        L1 = np.asarray(self.l1, dtype=float)
        L2 = np.asarray(self.l2, dtype=float)
        tm = np.remainder(times, self.period)
        k = np.minimum(np.searchsorted(T, tm, side="right") - 1, len(T) - 2)
        theta = (tm - T[k]) / (T[k + 1] - T[k])
        l1 = L1[k] + theta * (L1[k + 1] - L1[k])
        l2 = L2[k] + theta * (L2[k + 1] - L2[k])
        arcs = np.zeros((len(tm), 3))
        arcs[:, 1] = l1
        arcs[:, 2] = l1 + l2
        _require_valid(self, times, (arcs[:, 1] > 0.0) & (arcs[:, 2] > arcs[:, 1]))
        dt = T[k + 1] - T[k]
        l1dot = (L1[k + 1] - L1[k]) / dt
        l2dot = (L2[k + 1] - L2[k]) / dt
        rates = np.zeros((len(tm), 2, 2))
        rates[:, 0, 1] = l1dot
        rates[:, 1, 0] = l1dot
        rates[:, 1, 1] = l1dot + l2dot
        return arcs, rates


@dataclass(frozen=True)
class CompositeStride:
    """Closed rectangle in segment-length space combining constant-length
    shifts with proportional whole-body scalings.

    With ``a = (lam + delta, lam)`` the cycle visits, in order,
    ``a -> (lam, lam + delta) -> h * (lam, lam + delta) -> h * a -> a``:
    the first and third edges keep the total length constant while the
    second and fourth scale the whole body by the factor ``h`` (and back).
    Each edge is traversed at constant speed in shape space over a quarter
    period; for rate-independent substrates the resulting displacement does
    not depend on that choice.
    """

    lam: float
    delta: float
    h: float
    period: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.lam <= 0.0 or self.delta <= 0.0:
            raise ValueError("lam and delta must be positive")
        if self.h <= 1.0:
            raise ValueError("h must exceed 1")
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        # Scaling edges must be rays through the origin (cross product zero),
        # otherwise they are not whole-body proportional deformations.
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = self.vertices
        tol = 1e-12 * (self.h * (self.lam + self.delta)) ** 2
        if abs(b1 * c2 - b2 * c1) > tol or abs(d1 * a2 - d2 * a1) > tol:
            raise ValueError("scaling edges failed the proportionality check")
        # Built once: shape_at/rate_at run once per balance solve.
        object.__setattr__(self, "_path", self.as_path())

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        a = (self.lam + self.delta, self.lam)
        b = (self.lam, self.lam + self.delta)
        c = (self.h * b[0], self.h * b[1])
        d = (self.h * a[0], self.h * a[1])
        return (a, b, c, d)

    def as_path(self) -> TwoSegmentPath:
        (a1, a2), (b1, b2), (c1, c2), (d1, d2) = self.vertices
        q = self.period / 4.0
        return TwoSegmentPath(
            ref_length=2.0 * self.lam + self.delta,
            split=self.lam + self.delta,
            times=(0.0, q, 2.0 * q, 3.0 * q, self.period),
            l1=(a1, b1, c1, d1, a1),
            l2=(a2, b2, c2, d2, a2),
        )

    def corner_times(self) -> tuple[float, ...]:
        q = self.period / 4.0
        return (0.0, q, 2.0 * q, 3.0 * q, self.period)

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        return self._path.shape_at(t)

    def rate_at(self, t: float) -> ShapeRate:
        return self._path.rate_at(t)

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._path.sample(times)


@dataclass(frozen=True)
class SquareWave:
    """Square stretching wave of width ``delta`` and amplitude ``epsilon``
    traveling rightwards at speed ``speed``.

    The wave enters at the left end, traverses the body, and exits at the
    right end, with stretch ``1 + epsilon`` inside the wave and 1 outside;
    one passage takes ``(ref_length + delta) / speed`` and the program
    repeats with that period.  ``epsilon > 0`` is an extension wave,
    ``-1 < epsilon < 0`` a contraction wave.
    """

    ref_length: float
    delta: float
    epsilon: float
    speed: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.ref_length <= 0.0:
            raise ValueError("ref_length must be positive")
        if not 0.0 < self.delta < self.ref_length:
            raise ValueError("delta must satisfy 0 < delta < ref_length")
        if self.epsilon <= -1.0 or self.epsilon == 0.0:
            raise ValueError("epsilon must be > -1 and nonzero")
        if self.speed <= 0.0:
            raise ValueError("speed must be positive")

    @property
    def period(self) -> float:
        return (self.ref_length + self.delta) / self.speed

    def corner_times(self) -> tuple[float, ...]:
        c = self.speed
        return (0.0, self.delta / c, self.ref_length / c, self.period)

    def _nodes_and_rates(
        self, t: float
    ) -> tuple[list[tuple[float, float]], list[float]]:
        """Node list [(X, s), ...] plus the constant rate on each interval.

        Wave-front nodes are merged into their neighbours when rounding makes
        them unresolvable in either coordinate (the sliver they would bound
        has zero measure); this keeps the node lists strictly increasing at
        times arbitrarily close to the stage boundaries.
        """
        L, d, e, c = self.ref_length, self.delta, self.epsilon, self.speed
        tm = t % self.period
        ct = c * tm
        if tm < d / c:
            # wave entering: stretched region [0, ct)
            front = min(ct, L)
            pts = [(0.0, 0.0)]
            rates = []
            if front <= 0.0:
                pts.append((L, L))
                rates.append(e * c)
            elif front < L and (1.0 + e) * front < L + e * front:
                pts.append((front, (1.0 + e) * front))
                rates.append(0.0)
                pts.append((L, L + e * front))
                rates.append(e * c)
            else:
                pts.append((L, L + e * front))
                rates.append(0.0)
            return pts, rates
        if tm < L / c:
            # wave fully inside: [ct - d, ct)
            back = ct - d
            front = min(ct, L)
            pts = [(0.0, 0.0)]
            rates = []
            if back > 0.0:
                pts.append((back, back))
                rates.append(0.0)
            if front < L and front + e * d < L + e * d:
                pts.append((front, front + e * d))
                rates.append(-e * c)
                pts.append((L, L + e * d))
                rates.append(0.0)
            else:
                pts.append((L, L + e * d))
                rates.append(-e * c)
            return pts, rates
        # wave leaving: [ct - d, L]
        back = ct - d
        s_end = L + e * (L + d - ct)
        pts = [(0.0, 0.0)]
        rates = []
        if 0.0 < back < L and back < s_end:
            pts.append((back, back))
            rates.append(0.0)
            pts.append((L, s_end))
            rates.append(-e * c)
        else:
            # the wave sliver has collapsed against the right end
            pts.append((L, s_end))
            rates.append(0.0)
        return pts, rates

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        pts, _ = self._nodes_and_rates(t)
        return PiecewiseAffineShape(tuple(p[0] for p in pts), tuple(p[1] for p in pts))

    def rate_at(self, t: float) -> ShapeRate:
        pts, rates = self._nodes_and_rates(t)
        ref = tuple(p[0] for p in pts)
        pairs = tuple((r, r) for r in rates)
        return ShapeRate(ref, pairs)

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of ``_nodes_and_rates``, with every row padded to three
        pieces by zero-length pieces that repeat the last node and rate.

        Each of the three nodes after ``(0, 0)`` is computed for every
        branch of ``_nodes_and_rates`` with its presence mask and the rate of
        the piece ending at it; present nodes are then moved to the front.
        """
        L, d, e, c = self.ref_length, self.delta, self.epsilon, self.speed
        tm = np.remainder(times, self.period)
        ct = c * tm
        enter = tm < d / c
        inside = ~enter & (tm < L / c)
        leave = ~enter & ~inside
        front = np.minimum(ct, L)
        back = ct - d
        s_end = L + e * (L + d - ct)
        enter_front = enter & (front > 0.0) & (front < L) & ((1.0 + e) * front < L + e * front)
        has_back = inside & (back > 0.0) | leave & (0.0 < back) & (back < L) & (back < s_end)
        has_front = inside & (front < L) & (front + e * d < L + e * d)
        last_arc = np.where(
            enter, np.where(front <= 0.0, L, L + e * front), np.where(inside, L + e * d, s_end)
        )
        last_rate = np.where(
            enter,
            np.where((front <= 0.0) | enter_front, e * c, 0.0),
            np.where(inside & ~has_front | leave & has_back, -e * c, 0.0),
        )
        ref = np.stack([np.where(enter, front, back), front, np.full_like(tm, L)], axis=1)
        arc = np.stack([np.where(enter, (1.0 + e) * front, back), front + e * d, last_arc], axis=1)
        rate = np.stack([np.zeros_like(tm), np.full_like(tm, -e * c), last_rate], axis=1)
        present = np.stack([enter_front | has_back, has_front, np.ones_like(enter)], axis=1)
        order = np.argsort(~present, axis=1, kind="stable")
        pad = np.arange(3) >= present.sum(axis=1)[:, None]
        ref, arc, rate = (
            np.where(pad, a[:, 2:], np.take_along_axis(a, order, axis=1)) for a in (ref, arc, rate)
        )
        refs = np.concatenate([np.zeros((len(tm), 1)), ref], axis=1)
        arcs = np.concatenate([np.zeros((len(tm), 1)), arc], axis=1)
        ok = pad | (np.diff(refs, axis=1) > 0.0) & (np.diff(arcs, axis=1) > 0.0)
        _require_valid(self, times, ok.all(axis=1))
        return arcs, np.repeat(rate[:, :, None], 2, axis=2)


GaitProgram = Union[Breather, ConstantLength, TwoSegmentPath, CompositeStride, SquareWave]


def _require_valid(gait: GaitProgram, times: np.ndarray, ok: np.ndarray) -> None:
    """Raise the error ``shape_at`` raises at the first time not ``ok``."""
    if not ok.all():
        t = times.tolist()[int(np.argmin(ok))]
        gait.shape_at(t)
        raise ValueError(f"gait produced an invalid shape at t={t}")


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def shape_at(gait: GaitProgram, t: float) -> PiecewiseAffineShape:
    """Shape prescribed by the gait at time ``t`` (reduced mod the period)."""
    return gait.shape_at(t)


def rate_at(gait: GaitProgram, t: float) -> ShapeRate:
    """Shape rate at time ``t``; right-sided at gait corner times."""
    return gait.rate_at(t)


def sample(gait: GaitProgram, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``shape_at`` and ``rate_at`` at each of ``times``, as arrays.

    Returns nodal arc-lengths ``(n, P + 1)`` and per-piece end rates
    ``(n, P, 2)``, with ``P`` fixed per gait: 1 for a breather, 2 for the
    two-segment gaits, 3 for a square wave, whose rows with fewer pieces
    end in zero-length pieces repeating the last node and rate.  Every value
    is the one ``shape_at``/``rate_at`` compute, bit for bit, and an invalid
    shape raises the error ``shape_at`` raises at the first such time.
    """
    return gait.sample(np.asarray(times, dtype=float))


def length(shape: PiecewiseAffineShape) -> float:
    """Current body length (arc-length of the right end)."""
    return shape.length


def _rate_at_arc(shape: PiecewiseAffineShape, rate: ShapeRate, s: float) -> float:
    """Rate field value at arc-length ``s``, right-continuous at nodes."""
    arc = shape.arc
    idx = min(bisect_right(arc, s) - 1, len(arc) - 2)
    idx = max(idx, 0)
    s0, s1 = arc[idx], arc[idx + 1]
    r0, r1 = rate.seg_rates[idx]
    theta = (s - s0) / (s1 - s0)
    return r0 + theta * (r1 - r0)


def eulerian_velocity(
    shape: PiecewiseAffineShape, rate: ShapeRate, x1dot: float, s_query: float
) -> float:
    """Velocity of the material point currently at arc-length ``s_query``."""
    _check_same_nodes(shape, rate)
    if not 0.0 <= s_query <= shape.length:
        raise ValueError(f"arc-length {s_query} outside [0, {shape.length}]")
    return x1dot + _rate_at_arc(shape, rate, s_query)


def zero_crossings(
    shape: PiecewiseAffineShape, rate: ShapeRate, x1dot: float
) -> list[tuple[float, float]]:
    """Zero set of the velocity field, in arc-length.

    Returns ordered ``(lo, hi)`` pairs: ``lo == hi`` marks an isolated point
    where the velocity changes sign, ``lo < hi`` a maximal interval where
    the velocity vanishes identically.  Points where the velocity touches
    zero without changing sign are not reported.
    """
    _check_same_nodes(shape, rate)
    arc = shape.arc
    vtol = 0.0  # the field is exact piecewise-affine algebra; exact zeros only

    # Collect raw zero components piece by piece.
    raw: list[tuple[float, float]] = []
    for i in range(len(arc) - 1):
        s0, s1 = arc[i], arc[i + 1]
        r0, r1 = rate.seg_rates[i]
        v0, v1 = x1dot + r0, x1dot + r1
        if abs(v0) <= vtol and abs(v1) <= vtol:
            raw.append((s0, s1))
        elif v0 * v1 < 0.0:
            sz = s0 + (s1 - s0) * (-v0) / (v1 - v0)
            raw.append((sz, sz))
        elif v0 == 0.0:
            raw.append((s0, s0))
        elif v1 == 0.0:
            raw.append((s1, s1))
    if not raw:
        return []

    # Merge touching components.
    merged: list[list[float]] = [list(raw[0])]
    for lo, hi in raw[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])

    # Keep intervals always; keep points only where the sign changes across.
    def sign_near(s: float, side: int) -> float:
        probe = s + side * 1e-9 * max(shape.length, 1.0)
        probe = min(max(probe, 0.0), shape.length)
        v = x1dot + _rate_at_arc(shape, rate, probe)
        return math.copysign(1.0, v) if v != 0.0 else 0.0

    out: list[tuple[float, float]] = []
    for lo, hi in merged:
        if hi > lo:
            out.append((lo, hi))
            continue
        before = sign_near(lo, -1) if lo > 0.0 else 0.0
        after = sign_near(hi, +1) if hi < shape.length else 0.0
        if before != 0.0 and after != 0.0 and before != after:
            out.append((lo, hi))
    return out
