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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable, Union

from .analytic import _turning_points

__all__ = [
    "PiecewiseAffineShape",
    "ShapeRate",
    "Breather",
    "ConstantLength",
    "TwoSegmentPath",
    "CompositeStride",
    "SquareWave",
    "GaitProgram",
]


_REF_ORDER = "reference coordinates must be strictly increasing"
_ARC_ORDER = "arc-lengths must be strictly increasing"

# What a gait's ``_pieces_at(t)`` returns: one ``(s0, s1, r0, r1)`` tuple per
# interval, its end arc-lengths and end rates, plus the body length.  The
# default cycle integrator hands it straight to ``balance._solve``; the per-time
# checks ``shape_at`` makes are kept, with the same messages, while the ones
# the gait's constructor already guarantees (node sets, first node, one rate
# pair per interval) are not repeated.
_PiecesAt = tuple[list[tuple[float, float, float, float]], float]


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
                raise ValueError(_REF_ORDER)
            if not self.arc[i + 1] > self.arc[i]:
                raise ValueError(_ARC_ORDER)

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
        """Times splitting the period into pieces on which the profile is
        monotone: ``corners`` when given, else the default bump's half
        period, else a custom profile's turning points, scanned once."""
        if self.corners is not None:
            return self.corners
        if self.profile is None:
            return (0.0, 0.5 * self.period, self.period)
        if "_turning" not in self.__dict__:
            turning = (0.0, *_turning_points(self._rate, self.period), self.period)
            object.__setattr__(self, "_turning", turning)
        return self._turning

    monotone_corners = corner_times


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

    def _length_checked(self, t: float) -> float:
        l = self.length_at(t)
        if l <= 0.0:
            raise ValueError(f"profile produced non-positive length {l} at t={t}")
        return l

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        return PiecewiseAffineShape((0.0, self.ref_length), (0.0, self._length_checked(t)))

    def rate_at(self, t: float) -> ShapeRate:
        ldot = self.length_rate_at(t)
        ref = (0.0, self.ref_length)
        return ShapeRate(ref, ((0.0, ldot),))

    def _pieces_at(self, t: float) -> _PiecesAt:
        l = self._length_checked(t)
        if not l > 0.0:
            raise ValueError(_ARC_ORDER)
        return [(0.0, l, 0.0, self.length_rate_at(t))], l


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

    def _l1_checked(self, t: float) -> float:
        l1 = self.seg1_length_at(t)
        if not 0.0 < l1 < self.ref_length:
            raise ValueError(f"profile produced l1={l1} outside (0, {self.ref_length})")
        return l1

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        return PiecewiseAffineShape(
            (0.0, self.split, self.ref_length), (0.0, self._l1_checked(t), self.ref_length)
        )

    def rate_at(self, t: float) -> ShapeRate:
        l1dot = self.seg1_rate_at(t)
        ref = (0.0, self.split, self.ref_length)
        return ShapeRate(ref, ((0.0, l1dot), (l1dot, 0.0)))

    def _pieces_at(self, t: float) -> _PiecesAt:
        l1 = self._l1_checked(t)  # 0 < l1 < ref_length: both pieces have length
        l1dot = self.seg1_rate_at(t)
        return [(0.0, l1, 0.0, l1dot), (l1, self.ref_length, l1dot, 0.0)], self.ref_length


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
        for i, (l1, l2) in enumerate(zip(self.l1, self.l2)):
            if l1 + l2 == l1:
                raise ValueError(
                    f"l2[{i}]={l2!r} is absorbed by l1[{i}]={l1!r}: "
                    "l1 + l2 must exceed l1 in floating point"
                )
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

    def _lengths(self, k: int, theta: float) -> tuple[float, float]:
        l1 = self.l1[k] + theta * (self.l1[k + 1] - self.l1[k])
        l2 = self.l2[k] + theta * (self.l2[k + 1] - self.l2[k])
        return l1, l2

    def _rates(self, k: int) -> tuple[float, float]:
        dt = self.times[k + 1] - self.times[k]
        return (self.l1[k + 1] - self.l1[k]) / dt, (self.l2[k + 1] - self.l2[k]) / dt

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        l1, l2 = self._lengths(*self._locate(t))
        return PiecewiseAffineShape(
            (0.0, self.split, self.ref_length), (0.0, l1, l1 + l2)
        )

    def rate_at(self, t: float) -> ShapeRate:
        k, _ = self._locate(t)
        l1dot, l2dot = self._rates(k)
        ref = (0.0, self.split, self.ref_length)
        pairs = ((0.0, l1dot), (l1dot, l1dot + l2dot))
        return ShapeRate(ref, pairs)

    def _pieces_at(self, t: float) -> _PiecesAt:
        k, theta = self._locate(t)
        l1, l2 = self._lengths(k, theta)
        s_end = l1 + l2
        if not (l1 > 0.0 and s_end > l1):
            raise ValueError(_ARC_ORDER)
        l1dot, l2dot = self._rates(k)
        return [(0.0, l1, 0.0, l1dot), (l1, s_end, l1dot, l1dot + l2dot)], s_end


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
        # Built once: _pieces_at/shape_at/rate_at run once per balance solve.
        try:
            path = self.as_path()
        except ValueError as exc:
            raise ValueError(f"lam, delta, h and period give no valid path: {exc}") from exc
        object.__setattr__(self, "_path", path)

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
        return self._path.times

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        return self._path.shape_at(t)

    def rate_at(self, t: float) -> ShapeRate:
        return self._path.rate_at(t)

    def _pieces_at(self, t: float) -> _PiecesAt:
        return self._path._pieces_at(t)


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
        # The wave's back node ct - delta and its front ct must be distinct
        # floats wherever the wave is, in reference coordinates (width delta)
        # and in arc-length (width (1 + epsilon) * delta).
        if not min(1.0, 1.0 + self.epsilon) * self.delta > math.ulp(self.ref_length):
            raise ValueError(
                f"delta={self.delta!r} is absorbed by ref_length={self.ref_length!r}: "
                "delta * min(1, 1 + epsilon) must exceed the float spacing at ref_length"
            )

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
            if (1.0 + e) * front <= 0.0:  # no stretched region, or one of no arc-length
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

    def _pieces_at(self, t: float) -> _PiecesAt:
        pts, rates = self._nodes_and_rates(t)
        pieces = []
        for (x0, s0), (x1, s1), r in zip(pts, pts[1:], rates):
            if not x1 > x0:
                raise ValueError(_REF_ORDER)
            if not s1 > s0:
                raise ValueError(_ARC_ORDER)
            pieces.append((s0, s1, r, r))
        return pieces, pts[-1][1]


GaitProgram = Union[Breather, ConstantLength, TwoSegmentPath, CompositeStride, SquareWave]
