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
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Any, Callable, Union

from .analytic import _require_normal_stage_times, _turning_points
from .errors import _isfinite

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
_Piece = tuple[float, float, float, float]
_PiecesAt = tuple[list[_Piece], float]

# What a constant-rate gait's ``_stages()`` returns: one entry per corner span
# of positive width, ``(t0, t1, pieces at t0, pieces at t1)``.  The two piece
# lists pair up piece by piece with the same end rates, which hold over the
# whole span, while every arc-length is affine in t between them.  A piece
# may have zero length at a span end, where ``_pieces_at`` leaves it out.
_Stages = list[tuple[float, float, list[_Piece], list[_Piece]]]

# What a gait's ``_kinematics(xp, tm)`` returns at the phases ``tm`` (times
# modulo the period), each entry a float or an array of one per phase:
# ``(refs, arcs, count, rates)``, the ``P + 1`` node coordinates (``P`` fixed
# per gait), the ``count <= P`` pieces the shape has, padded by repeating the
# last node and rate, and a function giving each piece's ``(r0, r1)`` end
# rates (a length needs none).  Each family's kinematics are written once,
# over the namespace ``xp`` of array operations, and never raise: the callers
# check.  ``midpoint`` evaluates them on a block, ``_NodeGait`` on one float
# (``_SCALAR``); a profile gait's scalar methods read the same profile.
_Kinematics = tuple[list[Any], list[Any], Any, Callable[[], list[tuple[Any, Any]]]]


# The operations the kinematics use, named as in the Python array API
# standard where it has them, on one Python float (``midpoint`` has numpy's).
# A tuple is the scalar's array, ``where(mask, a, b)`` is ``a if mask else b``
# (both evaluated), and ``cases(conds, branches, *args)`` calls the branch of
# the first condition that holds, or the last branch, with ``args``.
_SCALAR = SimpleNamespace(
    asarray=lambda x: x,
    cases=lambda conds, branches, *args: branches[(*conds, True).index(True)](*args),
    where=lambda mask, a, b: a if mask else b,
    logical_not=operator.not_,
    minimum=lambda a, b: b if b < a else a,  # min(a, b), in one comparison
    searchsorted=lambda x1, x2, side: (bisect_right if side == "right" else bisect_left)(x1, x2),
    sin=math.sin,
    pow=math.pow,  # libm pow, as Python's ``x ** 2`` is
)


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
        _require_float_sized("ref", self.ref)
        _require_float_sized("arc", self.arc)

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
        _require_float_sized("ref", self.ref)
        for i, pair in enumerate(self.seg_rates):
            _require_float_sized(f"seg_rates[{i}]", pair)


def _require_float_sized(name: str, values) -> None:
    """Raise ``ValueError`` naming ``name[i]`` where ``values[i]`` is an
    integer too large for a float; inf and NaN pass (an infinite rate is the
    solver's to refuse)."""
    for i, v in enumerate(values):
        if isinstance(v, (int, float)):
            _isfinite(f"{name}[{i}]", v)


def _check_same_nodes(shape: PiecewiseAffineShape, rate: ShapeRate) -> None:
    if shape.ref != rate.ref:
        raise ValueError("shape and rate are defined on different node sets")


# ---------------------------------------------------------------------------
# Gait programs
# ---------------------------------------------------------------------------


def _bump(xp, rest: float, delta: float, period: float, tm):
    """The default profile ``rest + delta * sin^2(pi tm / period)``."""
    return rest + delta * xp.pow(xp.sin(math.pi * tm / period), 2.0)


def _bump_rate(xp, delta: float, period: float, tm):
    return delta * (math.pi / period) * xp.sin(2.0 * math.pi * tm / period)


def _require_finite(gait: GaitProgram) -> None:
    """Raise ``ValueError`` naming the first number among the gait's fields,
    or inside a tuple field, that is not finite."""
    for f in fields(gait):
        value = getattr(gait, f.name)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, v in items:
            where = f.name if i is None else f"{f.name}[{i}]"
            if isinstance(v, (int, float)) and not _isfinite(where, v):
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
        if self.profile is None and not math.isfinite(self.delta * (math.pi / self.period)):
            raise ValueError(f"period={self.period!r} is too short for delta={self.delta!r}: "
                             "the bump's rate delta * pi / period is not finite")
        if self.profile is None and not math.isfinite(2.0 * math.pi * self.period):
            raise ValueError(f"period={self.period!r} is too long: "
                             "the bump's phase 2 * pi * period is not finite")
        object.__setattr__(self, "_rest", rest)

    def _value(self, t: float) -> float:
        tm = t % self.period
        if self.profile is not None:
            return self.profile(tm)
        return _bump(_SCALAR, self._rest, self.delta, self.period, tm)

    def _rate(self, t: float) -> float:
        tm = t % self.period
        if self.profile_rate is not None:
            rate = self.profile_rate(tm)
            if math.isnan(rate):  # an infinite rate is left to the solver
                raise ValueError(f"profile_rate produced {rate} at t={t}")
            return rate
        return _bump_rate(_SCALAR, self.delta, self.period, tm)

    def _profile(self, xp, tm) -> tuple[Any, Callable[[], Any]]:
        """The profile at the phases ``tm`` and a function giving its rate:
        the bump over ``xp``, or a custom profile on each phase (its rate
        through ``_rate``, which refuses NaN)."""
        if self.profile is None:
            bump = (self.delta, self.period, tm)
            return _bump(xp, self._rest, *bump), lambda: _bump_rate(xp, *bump)
        return xp.each(self.profile, tm), lambda: xp.each(self._rate, tm)

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
        _isfinite("t", t)
        return PiecewiseAffineShape((0.0, self.ref_length), (0.0, self._length_checked(t)))

    def rate_at(self, t: float) -> ShapeRate:
        _isfinite("t", t)
        ldot = self.length_rate_at(t)
        ref = (0.0, self.ref_length)
        return ShapeRate(ref, ((0.0, ldot),))

    def _pieces_at(self, t: float) -> _PiecesAt:
        l = self._length_checked(t)
        if not l > 0.0:
            raise ValueError(_ARC_ORDER)
        return [(0.0, l, 0.0, self.length_rate_at(t))], l

    def _kinematics(self, xp, tm) -> _Kinematics:
        p, pdot = self._profile(xp, tm)
        return [0.0, self.ref_length], [0.0, p], 1, lambda: [(0.0, pdot())]


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
        _isfinite("t", t)
        return PiecewiseAffineShape(
            (0.0, self.split, self.ref_length), (0.0, self._l1_checked(t), self.ref_length)
        )

    def rate_at(self, t: float) -> ShapeRate:
        _isfinite("t", t)
        l1dot = self.seg1_rate_at(t)
        ref = (0.0, self.split, self.ref_length)
        return ShapeRate(ref, ((0.0, l1dot), (l1dot, 0.0)))

    def _pieces_at(self, t: float) -> _PiecesAt:
        l1 = self._l1_checked(t)  # 0 < l1 < ref_length: both pieces have length
        l1dot = self.seg1_rate_at(t)
        return [(0.0, l1, 0.0, l1dot), (l1, self.ref_length, l1dot, 0.0)], self.ref_length

    def _kinematics(self, xp, tm) -> _Kinematics:
        p, pdot = self._profile(xp, tm)

        def rates() -> list[tuple[Any, Any]]:
            r = pdot()
            return [(0.0, r), (r, 0.0)]

        return [0.0, self.split, self.ref_length], [0.0, p, self.ref_length], 2, rates


class _NodeGait:
    """``shape_at``, ``rate_at`` and ``_pieces_at`` at one time: the gait's
    ``_kinematics`` on Python floats, cut to its first ``count`` pieces.  Each
    gait class binds ``shape_at`` and ``rate_at`` in its own namespace, where
    ``perfbench/layertrace.py`` patches them."""

    def shape_at(self, t: float) -> PiecewiseAffineShape:
        _isfinite("t", t)
        refs, arcs, count, _ = self._kinematics(_SCALAR, t % self.period)
        return PiecewiseAffineShape(tuple(refs[: count + 1]), tuple(arcs[: count + 1]))

    def rate_at(self, t: float) -> ShapeRate:
        _isfinite("t", t)
        refs, _, count, rates = self._kinematics(_SCALAR, t % self.period)
        return ShapeRate(tuple(refs[: count + 1]), tuple(rates()[:count]))

    def _pieces_at(self, t: float) -> _PiecesAt:
        refs, arcs, count, rates = self._kinematics(_SCALAR, t % self.period)
        r = rates()
        pieces = []
        for j in range(count):  # in shape_at's order
            if not refs[j + 1] > refs[j]:
                raise ValueError(_REF_ORDER)
            s0, s1 = arcs[j], arcs[j + 1]
            if not s1 > s0:
                raise ValueError(_ARC_ORDER)
            pieces.append((s0, s1, *r[j]))
        return pieces, arcs[count]


def _edge_rates(times, l1, l2, k) -> tuple[Any, Any]:
    """The segment rates on a closed path's edge ``k`` (an index or an array)."""
    dt = times[k + 1] - times[k]
    return (l1[k + 1] - l1[k]) / dt, (l2[k + 1] - l2[k]) / dt


@dataclass(frozen=True)
class TwoSegmentPath(_NodeGait):
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
        # as floats, so that the scalar path and the block sampler subtract
        # the same numbers: an integer vertex beyond 2**53 is rounded once, here
        for name in ("times", "l1", "l2"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
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
            if not math.isfinite(l1 + l2):
                raise ValueError(
                    f"l1[{i}] + l2[{i}] overflows: the body length {l1!r} + {l2!r} is not finite"
                )
        if self.l1[0] != self.l1[-1] or self.l2[0] != self.l2[-1]:
            raise ValueError("path must close: first and last shape point equal")
        if not 0.0 < self.split < self.ref_length:
            raise ValueError("split must lie strictly inside (0, ref_length)")
        for k in range(n - 1):
            l1dot, l2dot = _edge_rates(self.times, self.l1, self.l2, k)
            for name, rate in (("l1", l1dot), ("l2", l2dot), ("l1 + l2", l1dot + l2dot)):
                if not math.isfinite(rate):
                    raise ValueError(
                        f"{name} changes too fast from times[{k}] to times[{k + 1}]: "
                        f"its rate {rate!r} is not finite"
                    )

    @property
    def period(self) -> float:
        return self.times[-1]

    def corner_times(self) -> tuple[float, ...]:
        return self.times

    shape_at = _NodeGait.shape_at  # in vars(TwoSegmentPath), for the benchmark's tracer
    rate_at = _NodeGait.rate_at

    def _kinematics(self, xp, tm) -> _Kinematics:
        """The edge ``k`` each phase is on, and the segment lengths there,
        linear between the vertices."""
        times, l1, l2 = xp.asarray(self.times), xp.asarray(self.l1), xp.asarray(self.l2)
        k = xp.minimum(xp.searchsorted(times, tm, side="right") - 1, len(times) - 2)
        theta = (tm - times[k]) / (times[k + 1] - times[k])
        len1 = l1[k] + theta * (l1[k + 1] - l1[k])
        len2 = l2[k] + theta * (l2[k + 1] - l2[k])

        def rates() -> list[tuple[Any, Any]]:
            l1dot, l2dot = _edge_rates(times, l1, l2, k)
            return [(0.0, l1dot), (l1dot, l1dot + l2dot)]

        return [0.0, self.split, self.ref_length], [0.0, len1, len1 + len2], 2, rates

    def _stages(self) -> _Stages:
        stages = []
        for k in range(len(self.times) - 1):
            l1dot, l2dot = _edge_rates(self.times, self.l1, self.l2, k)
            ends = []
            for l1, l2 in ((self.l1[k], self.l2[k]), (self.l1[k + 1], self.l2[k + 1])):
                ends.append([(0.0, l1, 0.0, l1dot), (l1, l1 + l2, l1dot, l1dot + l2dot)])
            stages.append((self.times[k], self.times[k + 1], *ends))
        return stages


@dataclass(frozen=True)
class CompositeStride(_NodeGait):
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

    shape_at = _NodeGait.shape_at  # in vars(CompositeStride), for the benchmark's tracer
    rate_at = _NodeGait.rate_at

    def _kinematics(self, xp, tm) -> _Kinematics:
        return self._path._kinematics(xp, tm)

    def _stages(self) -> _Stages:
        return self._path._stages()


# A square wave at each stage, of its length, width, amplitude and speed,
# ``ct`` (speed times phase), and the wave's front ``min(ct, L)`` and back
# ``ct - d``: the node ending the first piece, whether it is there, whether
# the wave's front node is, the right end's arc-length and the last piece's
# rate.  A node is left out where rounding makes it unresolvable in either
# coordinate (the sliver it would bound has zero measure), which keeps the
# nodes strictly increasing near the stage ends.


def _wave_entering(xp, L, d, e, c, ct, front, back) -> tuple:
    """The wave entering: the stretched region is ``[0, ct)``."""
    stretched, ahead = (1.0 + e) * front, L + e * front
    empty = stretched <= 0.0  # no stretched region, or one of no arc-length
    has_first = xp.logical_not(empty) & (front < L) & (stretched < ahead)
    right_rate = xp.where(empty | has_first, e * c, 0.0)
    return front, stretched, has_first, False, xp.where(empty, L, ahead), right_rate


def _wave_inside(xp, L, d, e, c, ct, front, back) -> tuple:
    """The wave fully inside: ``[ct - d, ct)``."""
    ed = e * d
    has_front = (front < L) & (front + ed < L + ed)
    return back, back, back > 0.0, has_front, L + ed, xp.where(has_front, 0.0, -e * c)


def _wave_leaving(xp, L, d, e, c, ct, front, back) -> tuple:
    """The wave leaving: ``[ct - d, L]``, whose sliver can reach the right end."""
    s_end = L + e * (L + d - ct)
    has_first = (0.0 < back) & (back < L) & (back < s_end)
    return back, back, has_first, False, s_end, xp.where(has_first, -e * c, 0.0)


_WAVE_STAGES = (_wave_entering, _wave_inside, _wave_leaving)


@dataclass(frozen=True)
class SquareWave(_NodeGait):
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
        _require_normal_stage_times(self.delta, self.speed, "speed")
        L, d, e, c = self.ref_length, self.delta, self.epsilon, self.speed
        for name, v in (("epsilon * speed", e * c), ("ref_length + epsilon * delta", L + e * d),
                        ("period (ref_length + delta) / speed", self.period)):
            if not math.isfinite(v):
                raise ValueError(f"{name} overflows: {v!r} is not finite")

    @property
    def period(self) -> float:
        return (self.ref_length + self.delta) / self.speed

    def corner_times(self) -> tuple[float, ...]:
        c = self.speed
        return (0.0, self.delta / c, self.ref_length / c, self.period)

    shape_at = _NodeGait.shape_at  # in vars(SquareWave), for the benchmark's tracer
    rate_at = _NodeGait.rate_at

    def _kinematics(self, xp, tm) -> _Kinematics:
        """The first piece, the wave while inside, the rest: padded to three."""
        L, d, e, c = self.ref_length, self.delta, self.epsilon, self.speed
        ct = c * tm
        front, back = xp.minimum(ct, L), ct - d
        first, first_arc, has_first, has_front, right_arc, right_rate = xp.cases(
            [tm < d / c, tm < L / c], _WAVE_STAGES, xp, L, d, e, c, ct, front, back
        )
        where, both, front_arc = xp.where, has_first & has_front, front + e * d
        refs = [0.0, where(has_first, first, where(has_front, front, L)), where(both, front, L), L]
        arcs = [
            0.0,
            where(has_first, first_arc, where(has_front, front_arc, right_arc)),
            where(both, front_arc, right_arc),
            right_arc,
        ]

        def rates() -> list[tuple[Any, Any]]:
            wave, last = -e * c, right_rate
            first_rate = where(has_first, 0.0, where(has_front, wave, last))
            second = where(both, wave, last)
            return [(first_rate, first_rate), (second, second), (last, last)]

        return refs, arcs, 1 + has_first + has_front, rates

    def _stages(self) -> _Stages:
        # the pieces of _kinematics within each stage, unmerged, at the
        # stage ends: the wave at the left end, at the front, at the right end
        L, d, e, c = self.ref_length, self.delta, self.epsilon, self.speed
        ec = e * c
        enter = (
            [(0.0, 0.0, 0.0, 0.0), (0.0, L, ec, ec)],
            [(0.0, (1.0 + e) * d, 0.0, 0.0), ((1.0 + e) * d, L + e * d, ec, ec)],
        )
        inside = (
            [(0.0, 0.0, 0.0, 0.0), (0.0, d + e * d, -ec, -ec), (d + e * d, L + e * d, 0.0, 0.0)],
            [(0.0, L - d, 0.0, 0.0), (L - d, L + e * d, -ec, -ec), (L + e * d, L + e * d, 0.0, 0.0)],
        )
        leave = (
            [(0.0, L - d, 0.0, 0.0), (L - d, L + e * d, -ec, -ec)],
            [(0.0, L, 0.0, 0.0), (L, L, -ec, -ec)],
        )
        corners = self.corner_times()
        return [
            (t0, t1, *ends)
            for t0, t1, ends in zip(corners, corners[1:], (enter, inside, leave))
            if t1 > t0
        ]


GaitProgram = Union[Breather, ConstantLength, TwoSegmentPath, CompositeStride, SquareWave]
