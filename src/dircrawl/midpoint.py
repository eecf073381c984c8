"""The midpoint grid: the package's one numpy module.

``engine.simulate``, and ``engine.cycle_displacement`` given an explicit
``dt``, integrate on a composite midpoint grid with a sample at every
corner.  Its step times are known up front, so the gait is sampled and the
balance solved for a block of steps at a time, bit for bit as the scalar
loop (``shape_at``/``rate_at`` and ``balance.solve_velocity`` per step)
would: the same float operations in the same order.

Each row is resolved by the solver's one candidate rule, ``balance._plan``,
from the signs of its candidate functions, read from its gait family's
model with no force sum at its breakpoints: the stage model
``balance._AffineStage`` on constant-rate gaits (``_KnownRows``), the two
closed-form breakpoint forces on profile gaits (``_ProfileRows``).  Rows of
one sign pattern come in runs, and ``_resolve`` asks each run's plan once.
A row no model places takes +0.0 where every rate is 0 (a body at rest),
and otherwise goes to ``balance._solve`` on its pieces, the one fallback:
the scalar layer is reached only through it and ``gait._pieces_at``.

Block format: ``n`` shapes are nodal arc-lengths ``arcs`` ``(n, P + 1)`` and
per-piece end rates ``rates`` ``(n, P, 2)``, ``P`` fixed per gait: 1 for a
breather, 2 for the two-segment gaits, 3 for a square wave, whose rows with
fewer pieces end in zero-length pieces repeating the last node and rate.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import analytic, balance, body
from .body import GaitProgram
from .errors import DegenerateSubstrateError, StepLimitError
from .friction import FrictionLaw

__all__ = ["simulate", "cycle"]

# Most midpoint steps one call may take; a smaller dt raises StepLimitError
# before any grid is built.
_MAX_STEPS = 1_000_000
# Steps the kernel samples and solves at once.  Fixed blocks keep the numpy
# temporaries one size from block to block, so the allocator reuses them
# instead of growing the heap with each run length.  Sampling and solving a
# block of 16 rows costs ~0.48 ms and one of 2048 rows ~1.14 ms (medians
# over the 15 benchmark classes, seeds 1-3, fastest of 40 timings on a
# shared 2-core x86-64 host; 0.29-1.00 and 0.79-1.43 ms by class), so the
# fixed part is paid 8 times by a default 2-period simulate (~4000 steps)
# at 512 rows and twice at 2048.  Benchmark `trajectory` (16 s runs, seeds
# 201-202, same host) gives ~120/s and 40.9 MB peak RSS at 512 rows,
# 210-217/s and 41.9-42.2 MB at 2048, and 227-261/s and 43.9-44.0 MB at
# 4096, where one block holds the whole run; 2048 keeps RSS within ~4 % of
# 512.
_BLOCK = 2048


def simulate(
    law: FrictionLaw, gait: GaitProgram, n_periods: int, dt: float, x0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...], dict[str, int], float]:
    """Grid times, left-end positions and body lengths over ``n_periods``
    periods from ``x0``, the regime of each step, the steps per regime and
    the largest force residual."""
    times, _ = _stage_grid(gait, dt, n_periods)
    lengths = np.empty(len(times))
    x1dot, codes, residual_max = _kernel(law, gait, times, lengths)
    # x1[i + 1] = x1[i] + x1dot * dt, in step order
    x1 = np.add.accumulate(np.concatenate([[x0], x1dot * np.diff(times)]))
    regimes = tuple(np.asarray(balance.REGIMES, dtype=object)[codes])
    return times, x1, lengths, regimes, _regime_counts(codes), residual_max


def cycle(
    law: FrictionLaw, gait: GaitProgram, dt: float
) -> tuple[float, list[float], dict[str, int], float]:
    """Net displacement over one period, per-stage sums, regime counts and
    the largest force residual."""
    times, stages = _stage_grid(gait, dt)
    x1dot, codes, residual_max = _kernel(law, gait, times, None)
    dx = x1dot * np.diff(times)
    stage_sums = [_sum_in_order(dx[stages == k]) for k in range(stages[-1] + 1)]
    return _sum_in_order(dx), stage_sums, _regime_counts(codes), residual_max


def _regime_counts(codes: np.ndarray) -> dict[str, int]:
    """Steps per regime, keyed in order of first occurrence."""
    seen, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip((balance.REGIMES[c] for c in seen[order].tolist()), counts[order].tolist()))


def _stage_grid(
    gait: GaitProgram, dt: float, n_periods: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Sample times over ``n_periods`` periods, plus the stage index of
    each step of the first.

    Raises :class:`StepLimitError` when ``n_periods`` periods at ``dt``
    would take more than ``_MAX_STEPS`` steps, before building anything.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if n_periods > _MAX_STEPS:  # a period takes a step at least; a huge int overflows below
        raise StepLimitError(f"n_periods exceeds the limit of {_MAX_STEPS} steps at any dt")
    spans = analytic._corner_spans(gait.corner_times(), gait.period)
    # Upper bound on the step count below; float arithmetic, so a tiny dt
    # cannot make it build a huge integer or list.
    steps = n_periods * (gait.period / dt + len(spans))
    if not steps <= _MAX_STEPS:
        raise StepLimitError(
            f"dt={dt!r} needs about {steps:.3g} steps for {n_periods} period(s), "
            f"more than the limit of {_MAX_STEPS}"
        )
    times = [np.zeros(1)]
    stages = []
    for k, (a, b) in enumerate(spans):
        n = max(1, math.ceil((b - a) / dt - 1e-9))
        times.append(a + (b - a) * np.arange(1, n + 1) / n)
        stages.append(np.full(n, k))
    grid = np.concatenate(times)
    grid[-1] = gait.period
    periods = [p * gait.period + grid[1:] for p in range(n_periods)]
    return np.concatenate([grid[:1], *periods]), np.concatenate(stages)


def _kernel(
    law: FrictionLaw, gait: GaitProgram, times: np.ndarray, lengths: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Balance velocity and regime code of every step of the grid ``times``,
    solved at the step midpoints, plus the largest residual; ``lengths``,
    when given, gets the body length at each grid time (no rate is read).

    A failing block is replayed through the scalar loop, for its errors
    only, so the error raised is the first the scalar loop would raise.
    """
    n = len(times) - 1
    x1dot = np.empty(n)
    codes = np.empty(n, dtype=np.int8)
    residual_max = 0.0
    stages = getattr(gait, "_stages", None)
    if stages is None:
        model = _ProfileRows(law)
    else:
        model = _KnownRows(law, [balance._AffineStage(law, *stage) for stage in stages()])
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        grid = times[i0 : i1 + 1]  # from the last block's last time: its length again
        mids = 0.5 * (grid[:-1] + grid[1:])
        tm = np.remainder(mids, gait.period)  # the samplers' and the stage models' time
        try:
            arcs, rates = _shapes(gait, mids, tm)
            x, regime, residual = model.solve(tm, arcs, rates())
            if lengths is not None:
                lengths[i0 : i1 + 1] = _shapes(gait, grid)[0][:, -1]
        except Exception:
            # the scalar loop: a grid time's shape alone, then each step's solve and end
            if lengths is not None:
                _shapes(gait, grid[:1])
            for k, tm in enumerate(mids.tolist(), 1):
                try:
                    balance._solve(law, *gait._pieces_at(tm))
                except DegenerateSubstrateError as exc:
                    raise DegenerateSubstrateError(f"{exc} (at t = {tm})") from exc
                if lengths is not None:
                    _shapes(gait, grid[k : k + 1])
            raise
        x1dot[i0:i1] = x
        codes[i0:i1] = regime
        residual_max = max(residual_max, float(residual.max()))
    return x1dot, codes, residual_max


class _KnownRows:
    """The rows of a gait with constant-rate stages (``body._Stages``)
    whose candidate functions ``balance._AffineStage`` knows, and their
    solutions, bit for bit as ``balance.solve_velocity``.

    One model per stage; one without functions places no row.  A row
    strictly inside its stage, with the model's breakpoints and every
    candidate function of the model farther than ``balance._MARGIN`` times
    the stage's atol from zero, has the sign pattern of the model's
    functions at its time, and takes their plan, asked once per run at the
    time of its first row.  By pattern, rather than by locating the row
    among the stage's stretches: a switch time is a rounded root, and on a
    short stage late in the period a float next to it can have a candidate
    function far from zero on the other side.  Other rows answer NaN.
    """

    def __init__(self, law: FrictionLaw, models: list[balance._AffineStage]) -> None:
        self.law, self.models = law, models
        # Per stage, along the last axis: its ends, width and margin, the
        # functions a row must check at both ends, and the breakpoints, each
        # list padded to the longest.
        self.t0 = np.array([m.t0 for m in models])
        # a model without functions places no row: nothing is strictly inside its stage
        self.t1 = np.array([m.t1 if m.conds is not None else m.t0 for m in models])
        self.w = np.array([m.w for m in models])
        self.margin = np.array([balance._MARGIN * m.atol for m in models])
        g0, dg = [], []
        for m, margin in zip(models, self.margin.tolist()):
            # g0 + th * (g1 - g0) runs monotonically from g0 to g0 + (g1 - g0)
            # as th goes from 0 to 1, in floats too: a function of one sign
            # beyond the margin at both of those ends keeps it, and no row
            # need check it
            conds = zip(*m.conds) if m.conds is not None else ()
            live = [(a, b - a) for a, b in conds if not _beyond(margin, a, a + (b - a))]
            g0.append([a for a, _ in live])
            dg.append([d for _, d in live])
        self.g0 = np.nan_to_num(_padded(g0), nan=math.inf)
        self.dg = np.nan_to_num(_padded(dg))
        self.breaks = _padded([m.breaks for m in models])

    def solve(
        self, tm: np.ndarray, arcs: np.ndarray, rates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's ``x1dot``, regime code (an index into
        ``balance.REGIMES``) and residual, for the block sampled at times
        ``tm`` (modulo the period)."""
        rows = _Rows(self.law, arcs, rates)
        stage = np.searchsorted(self.t0, tm, side="right") - 1
        t0 = self.t0[stage]
        with np.errstate(all="ignore"):  # as model.at computes them
            g = self.g0[:, stage] + (tm - t0) / self.w[stage] * self.dg[:, stage]
        ok = (t0 < tm) & (tm < self.t1[stage]) & (np.abs(g) > self.margin[stage]).all(axis=0)
        # the row's breakpoints are the model's: a piece merged away at a
        # node the sampler could not resolve can take a rate with it
        in_model = np.zeros(rows.flat.shape, dtype=bool)
        for b in self.breaks[:, stage]:
            hit = rows.flat == -b
            in_model |= hit
            ok &= hit.any(axis=0) | np.isnan(b)
        ok &= in_model.all(axis=0)
        # a run has one stage and one sign pattern; a row the model cannot place has stage -1
        placed = np.where(ok, stage, -1)

        def answer(i0: int, i1: int) -> tuple:
            k = int(placed[i0])
            if k < 0:
                return "const", math.nan
            model = self.models[k]
            return _answer(balance._settled(self.law, model.at(float(tm[i0]))), model.breaks)

        return _resolve(self.law, rows, np.vstack([placed, g > 0.0]), answer)


class _ProfileRows:
    """The rows of a profile gait (``body.Breather``, ``body.ConstantLength``)
    and their solutions, bit for bit as ``balance.solve_velocity``.

    A row's rates run from 0 to ``p'`` (``rates[:, 0, 1]``), so its
    breakpoints are ``-p'`` and ``-0.0``, ascending, with the forces of
    ``balance._profile_forces`` times the body length.  A row with ``p' !=
    0``, a force scale off its floor, and each candidate function farther
    than ``balance._MARGIN`` times atol from zero takes the plan of their
    sign pattern.  Other rows answer NaN.
    """

    def __init__(self, law: FrictionLaw) -> None:
        self.law = law

    def solve(
        self, tm: np.ndarray, arcs: np.ndarray, rates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_KnownRows.solve` for a profile gait; ``tm`` is not read."""
        law, rows = self.law, _Rows(self.law, arcs, rates)
        rate, atol = rows.flat[1], rows.atol  # p', and vscale = |p'|
        with np.errstate(all="ignore"):
            lower, upper = (f * rows.l_total for f in balance._profile_forces(law, rows.vscale))
            g = np.array(balance._conds([(lower, lower), (upper, upper)], atol))
            ok = (rate != 0.0) & (rows.fscale >= balance._ACCEPT_FLOOR)
            ok &= (np.abs(g) > balance._MARGIN * atol).all(axis=0)
        up = rate > 0.0
        breaks = np.array([np.where(up, -rate, -0.0), np.where(up, -0.0, -rate)])

        def answer(i0: int, i1: int) -> tuple:
            if not ok[i0]:
                return "const", math.nan
            return _answer(balance._settled(law, g[:, i0].tolist()), breaks[:, i0:i1])

        return _resolve(law, rows, np.vstack([ok, g > 0.0]), answer)


def _beyond(margin: float, a: float, b: float) -> bool:
    """Whether ``a`` and ``b`` are both above ``margin``, or both below ``-margin``."""
    return min(a, b) > margin or max(a, b) < -margin


def _padded(lists: list[list[float]]) -> np.ndarray:
    """``lists`` as the columns of an array, each padded with NaN."""
    size = max(map(len, lists))
    padded = [[*v, *[math.nan] * (size - len(v))] for v in lists]
    return np.array(padded).T.reshape(size, len(lists))


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, left to right."""
    return float(np.add.accumulate(np.concatenate([[0.0], values]))[-1])


# Checked block arcs, and a function computing their rates from what the arcs left.
_Shapes = tuple[np.ndarray, Callable[[], np.ndarray]]


def _shapes(gait: GaitProgram, times: np.ndarray, tm: np.ndarray | None = None) -> _Shapes:
    """``shape_at`` at each of ``times`` as one block, and a function giving
    ``rate_at`` there; an invalid shape raises :func:`_require_valid`'s error.
    ``tm``, where given, is ``times`` modulo the period."""
    if isinstance(gait, body.CompositeStride):
        gait = gait._path
    if tm is None:
        tm = np.remainder(times, gait.period)
    if isinstance(gait, body.TwoSegmentPath):
        return _path_shapes(gait, times, tm)
    if isinstance(gait, body.SquareWave):
        return _wave_shapes(gait, times, tm)
    return _profile_shapes(gait, times, tm)


def _profile_shapes(gait: GaitProgram, times: np.ndarray, tm: np.ndarray) -> _Shapes:
    """Breathers (one piece, length ``p``) and constant-length crawlers (two
    pieces split at the first segment's length ``p``); the ``2:`` and ``1:``
    slices below are empty for a breather.  The built-in bump is evaluated
    over the whole block; a custom profile is called once per time."""
    bump = gait.profile is None
    if bump:
        # Python's ``** 2`` is libm ``pow``, and so is ``np.float_power``;
        # numpy's ``**`` and ``np.square`` compute ``s * s``, which rounds
        # differently on about 1 sine in 1200.
        sin2 = np.float_power(np.sin(math.pi * tm / gait.period), 2.0)
        p = gait._rest + gait.delta * sin2
    else:
        ts = times.tolist()
        p = np.array([gait._value(t) for t in ts], dtype=float)
    if isinstance(gait, body.Breather):
        n_pieces, ok = 1, p > 0.0
    else:
        n_pieces, ok = 2, (0.0 < p) & (p < gait.ref_length)
    _require_valid(gait, times, ok)
    arcs = np.zeros((len(p), n_pieces + 1))
    arcs[:, 1] = p
    arcs[:, 2:] = gait.ref_length

    def rates() -> np.ndarray:
        if bump:
            pdot = gait.delta * (math.pi / gait.period) * np.sin(2.0 * math.pi * tm / gait.period)
        else:
            pdot = np.array([gait._rate(t) for t in ts], dtype=float)
        out = np.zeros((len(p), n_pieces, 2))
        out[:, 0, 1] = pdot
        out[:, 1:, 0] = pdot[:, None]
        return out

    return arcs, rates


def _path_shapes(gait: body.TwoSegmentPath, times: np.ndarray, tm: np.ndarray) -> _Shapes:
    # _locate, shape_at and rate_at on arrays, operation for operation
    T = np.asarray(gait.times, dtype=float)
    L1 = np.asarray(gait.l1, dtype=float)
    L2 = np.asarray(gait.l2, dtype=float)
    k = np.minimum(np.searchsorted(T, tm, side="right") - 1, len(T) - 2)
    theta = (tm - T[k]) / (T[k + 1] - T[k])
    l1 = L1[k] + theta * (L1[k + 1] - L1[k])
    l2 = L2[k] + theta * (L2[k + 1] - L2[k])
    arcs = np.zeros((len(tm), 3))
    arcs[:, 1] = l1
    arcs[:, 2] = l1 + l2
    _require_valid(gait, times, (arcs[:, 1] > 0.0) & (arcs[:, 2] > arcs[:, 1]))

    def rates() -> np.ndarray:
        dt = T[k + 1] - T[k]
        l1dot = (L1[k + 1] - L1[k]) / dt
        l2dot = (L2[k + 1] - L2[k]) / dt
        out = np.zeros((len(tm), 2, 2))
        out[:, 0, 1] = l1dot
        out[:, 1, 0] = l1dot
        out[:, 1, 1] = l1dot + l2dot
        return out

    return arcs, rates


def _wave_shapes(gait: body.SquareWave, times: np.ndarray, tm: np.ndarray) -> _Shapes:
    """``SquareWave._nodes_and_rates`` on arrays: each of the three nodes
    after ``(0, 0)`` is computed for every branch, and the presence masks
    pick each row's nodes in order, with no sort; a row with fewer nodes
    repeats the last, the right end, as padding."""
    L, d, e, c = gait.ref_length, gait.delta, gait.epsilon, gait.speed
    ct = c * tm
    enter = tm < d / c
    inside = ~enter & (tm < L / c)
    leave = ~enter & ~inside
    front = np.minimum(ct, L)
    back = ct - d
    s_end = L + e * (L + d - ct)
    empty = (1.0 + e) * front <= 0.0
    enter_front = enter & ~empty & (front < L) & ((1.0 + e) * front < L + e * front)
    has_back = inside & (back > 0.0) | leave & (0.0 < back) & (back < L) & (back < s_end)
    has_front = inside & (front < L) & (front + e * d < L + e * d)
    last_arc = np.where(
        enter, np.where(empty, L, L + e * front), np.where(inside, L + e * d, s_end)
    )
    n1 = enter_front | has_back
    both = n1 & has_front

    def in_order(first, inside_front, right_end) -> list:
        return [
            np.where(n1, first, np.where(has_front, inside_front, right_end)),
            np.where(both, inside_front, right_end),
            right_end,
        ]

    ref1, ref2, _ = in_order(np.where(enter, front, back), front, L)
    nodes = in_order(np.where(enter, (1.0 + e) * front, back), front + e * d, last_arc)
    arc1, arc2, _ = nodes
    arcs = np.stack([np.zeros_like(tm), *nodes], axis=1)
    # Padding pieces have length 0: check only the pieces the row has.
    ok = (ref1 > 0.0) & (arc1 > 0.0)
    ok &= ~(n1 | has_front) | (ref2 > ref1) & (arc2 > arc1)
    ok &= ~both | (L > ref2) & (last_arc > arc2)
    _require_valid(gait, times, ok)

    def rates() -> np.ndarray:
        last_rate = np.where(
            enter,
            np.where(empty | enter_front, e * c, 0.0),
            np.where(inside & ~has_front | leave & has_back, -e * c, 0.0),
        )
        return np.repeat(np.stack(in_order(0.0, -e * c, last_rate), axis=1)[:, :, None], 2, axis=2)

    return arcs, rates


def _require_valid(gait: GaitProgram, times: np.ndarray, ok: np.ndarray) -> None:
    """Raise the error ``shape_at`` raises at the first time not ``ok``,
    which ``_pieces_at`` raises before it reads the rate."""
    if not ok.all():
        t = times.tolist()[int(np.argmin(ok))]
        gait._pieces_at(t)
        raise ValueError(f"gait produced an invalid shape at t={t}")


def _answer(plan: tuple | None, breaks) -> tuple:
    """A run's answer from its ``balance._settled`` plan on ``breaks`` (the
    run's columns of an array): ``("root", lo, hi)`` for the root
    on ``[lo, hi]``, else ``("const", x)``, x the first candidate closest to
    zero, or NaN where the scalar solver must decide."""
    if plan is None:
        return "const", math.nan
    if plan[0] == "root":
        return "root", breaks[plan[1]], breaks[plan[1] + 1]
    x = None
    for ends in plan[1]:
        value = _closest_to_zero_rows(*balance._span(breaks, ends))
        x = value if x is None else np.where(np.abs(value) < np.abs(x), value, x)
    return "const", x


def _resolve(
    law: FrictionLaw, rows: _Rows, signs: np.ndarray, answer: Callable[[int, int], tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's solution from the plan of its sign pattern, the row's
    column of ``signs``: rows come in time order, so rows of one pattern
    come in runs, cut wherever a column differs from the one before, and
    ``answer(i0, i1)`` gives a run's :func:`_answer`.  Rows on a gap root
    share one polynomial solve, probed at the gap's middle.  A row left NaN
    (no plan, not one root, or its model could not place it) takes +0.0
    where every rate is 0, a body at rest, whose plan's one candidate is
    the breakpoint -0.0; any other goes to ``balance._solve``
    (:meth:`_Rows.settle`)."""
    n = signs.shape[1]
    x, lo, hi, on_gap = np.full(n, math.nan), np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (signs[:, 1:] != signs[:, :-1]).any(axis=0)
    cuts = [*np.flatnonzero(starts).tolist(), n]
    for i0, i1 in zip(cuts, cuts[1:]):
        kind, *values = answer(i0, i1)
        if kind == "const":
            x[i0:i1] = values[0]
        else:
            on_gap[i0:i1] = True
            lo[i0:i1], hi[i0:i1] = values
    at = np.flatnonzero(on_gap)
    if len(at):
        lo, hi = lo[at], hi[at]
        pieces = rows.pieces if len(at) == n else tuple(p[:, at] for p in rows.pieces)
        with np.errstate(all="ignore"):
            a, bq, cq, on_break = _segment_poly_rows(law, *pieces, 0.5 * (lo + hi))
            root, n_roots = _poly_roots_rows(a, bq, cq, lo, hi)
        # a root at -0.0 enters as +0.0
        x[at] = np.where(on_break | (n_roots != 1), math.nan, _closest_to_zero_rows(root, root))
    rare = ~np.isfinite(x)
    if rare.any():
        rest = rare & ~rows.flat.any(axis=0)
        x[rest] = 0.0
        rare &= ~rest
    return rows.settle(law, x, rare)


class _Rows:
    """A block of shapes as the row sources read it: rows run
    along the last axis of every array, so that numpy's inner loops run over
    the block; pieces and breakpoints run along the first.  ``pieces`` are
    ``(seg, r0, r1)``, and ``vscale``, ``fscale`` and ``atol`` are
    ``balance._breaks_and_scales``, row by row."""

    def __init__(self, law: FrictionLaw, arcs: np.ndarray, rates: np.ndarray) -> None:
        arc = np.ascontiguousarray(arcs.T)
        rate = np.ascontiguousarray(rates.transpose(1, 2, 0))
        self.s0, self.s1 = arc[:-1], arc[1:]
        seg = self.s1 - self.s0
        self.pieces = (seg, rate[:, 0], rate[:, 1])
        self.l_total = arc[-1]
        self.flat = rate.reshape(2 * len(rate), -1)  # every rate, in the scalar's order
        self.vscale = np.abs(self.flat).max(axis=0)
        with np.errstate(all="ignore"):
            self.fscale = (
                law.tau_minus + law.tau_plus + (law.mu_minus + law.mu_plus) * self.vscale
            ) * self.l_total
            self.atol = balance._ACCEPT_RTOL * np.maximum(self.fscale, balance._ACCEPT_FLOOR)

    def settle(
        self, law: FrictionLaw, x: np.ndarray, rare: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Regime and residual of each row at its solution ``x``; a ``rare``
        row, or one whose force scale or residual the scalar solver
        rejects, is solved by ``balance._solve`` on its pieces instead."""
        n = len(x)
        seg, r0, r1 = self.pieces
        with np.errstate(all="ignore"):
            # Classify the velocity field at the solution; padding never sticks.
            stick_tol = balance._STICK_RTOL * self.vscale
            sticks = (r0 == r1) & (np.abs(x + r0) <= stick_tol) & (seg > 0.0)
            stick_len = np.zeros(n)
            run_lo = np.zeros(n)
            # a piece no row sticks on starts and ends no run
            for j in np.flatnonzero(sticks.any(axis=1)).tolist():
                starts = sticks[j] & ~sticks[j - 1] if j > 0 else sticks[j]
                run_lo = np.where(starts, self.s0[j], run_lo)
                ends = sticks[j] & ~sticks[j + 1] if j + 1 < len(sticks) else sticks[j]
                stick_len = np.where(ends, stick_len + (self.s1[j] - run_lo), stick_len)
            whole = stick_len >= self.l_total * (1.0 - balance._WHOLE_BODY_RTOL)
            regime = np.where(whole, 2, np.where(sticks.any(axis=0), 1, 0)).astype(np.int8)

            x_lo, x_hi = (f[0] for f in _total_force_rows(law, *self.pieces, x[None]))
            residual = np.where(
                (x_lo <= 0.0) & (0.0 <= x_hi), 0.0, np.minimum(np.abs(x_lo), np.abs(x_hi))
            )
            rare = rare | ~np.isfinite(self.fscale)
            rare |= ~(np.isfinite(residual) & (residual <= balance._RESIDUAL_RTOL * self.fscale))

        # Through the module, so that a replaced balance._solve sees these
        # rows; each row's pieces of positive length, as the scalar's shape holds them.
        for i in np.flatnonzero(rare).tolist():
            real = seg[:, i] > 0.0
            pieces = list(zip(*(v[real, i].tolist() for v in (self.s0, self.s1, r0, r1))))
            x[i], name, residual[i], _, _ = balance._solve(law, pieces, pieces[-1][1])
            regime[i] = balance.REGIMES.index(name)
        return x, regime, residual


def _collapsed(mask: np.ndarray) -> np.ndarray | np.bool_:
    """``mask``, or its one value as a numpy bool scalar (``np.True_`` or
    ``np.False_``) where every element has it, so that a choice every row
    makes the same way is made once (:func:`_pick`)."""
    every = mask.all()
    return every if every or not mask.any() else mask


def _pick(mask: np.ndarray | np.bool_, a, b):
    """``np.where(mask, a, b)``; a mask :func:`_collapsed` to a scalar
    returns the side it picks, and the other side may be None."""
    if mask.ndim:
        return np.where(mask, a, b)
    return a if mask else b


def _total_force_rows(
    law: FrictionLaw, seg: np.ndarray, r0: np.ndarray, r1: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``balance.total_force`` of each row's pieces (``seg``, ``r0``, ``r1``
    shaped ``(P, n)``) at each ``x[m, i]``: bounds ``(lo, hi)`` shaped like
    ``x``.  Each piece adds the scalar's one or two terms, in piece order; a
    piece with one term adds 0.0 in place of the second, or nothing where no
    element has a second, which changes no partial sum (they start at +0.0,
    so none is -0.0).  One piece at a time, so no temporary holds more than
    one of ``x``'s shape."""
    point_sum = np.zeros(x.shape)
    static_len = np.zeros(x.shape)
    any_static = False
    for s, q0, q1 in zip(seg, r0, r1):
        v0 = x + q0
        v1 = x + q1
        static = _collapsed((v0 == 0.0) & (v1 == 0.0))
        one_sign = _collapsed((v0 <= 0.0) & (v1 <= 0.0) | (v0 >= 0.0) & (v1 >= 0.0))
        back = _collapsed((v0 < 0.0) | (v0 == 0.0) & (v1 < 0.0))  # the first part slides backward
        len_a = None if one_sign is np.True_ else v0 / (v0 - v1) * s  # a crossing's first part
        first = _sliding_term(law, back, _pick(one_sign, s, len_a), _pick(one_sign, v0 + v1, v0))
        point_sum = point_sum + _pick(static, 0.0, first)
        if one_sign is not np.True_:
            second = _sliding_term(law, ~back, s - len_a, v1)
            point_sum = point_sum + _pick(one_sign, 0.0, second)
        if static is not np.False_:
            any_static = True
            static_len = static_len + _pick(static, s, 0.0)
    if not any_static:
        return point_sum, point_sum.copy()
    has_static = static_len > 0.0
    return (
        np.where(has_static, point_sum - law.tau_plus * static_len, point_sum),
        np.where(has_static, point_sum + law.tau_minus * static_len, point_sum),
    )


def _sliding_term(
    law: FrictionLaw, back: np.ndarray | np.bool_, length: np.ndarray, v_sum: np.ndarray
) -> np.ndarray:
    """The scalar's force term of a part of ``length`` sliding backward
    where ``back`` (an array or a :func:`_collapsed` scalar) and forward
    elsewhere, ``v_sum`` the sum of its end velocities:
    ``tau * length - mu * 0.5 * v_sum * length``."""
    tau = _pick(back, law.tau_minus, -law.tau_plus)
    mu = _pick(back, law.mu_minus, law.mu_plus)
    return tau * length - mu * 0.5 * v_sum * length


def _segment_poly_rows(
    law: FrictionLaw, seg: np.ndarray, r0: np.ndarray, r1: np.ndarray, x_probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``balance._segment_poly`` at each probe ``x_probe[m, i]``:
    coefficients ``a, b, c``, summed over the pieces from +0.0 in piece
    order as the scalar ``+=`` loop adds (``np.sum`` adds pairwise), plus a
    mask of the probes that landed on a breakpoint.  A piece adds only the
    forms some probe takes; ``a`` gains nothing where no probe crosses."""
    tm, tp, mm, mp = law.tau_minus, law.tau_plus, law.mu_minus, law.mu_plus
    a = np.zeros(x_probe.shape)
    b = np.zeros(x_probe.shape)
    c = np.zeros(x_probe.shape)
    on_break = np.zeros(x_probe.shape, dtype=bool)
    for s, q0, q1 in zip(seg, r0, r1):
        v0 = x_probe + q0
        v1 = x_probe + q1
        neg = _collapsed((v0 < 0.0) & (v1 < 0.0))
        one_sign = _collapsed(neg | (v0 > 0.0) & (v1 > 0.0))
        one_b = one_c = cross_b = cross_c = None
        if one_sign is not np.False_:
            mu = _pick(neg, mm, mp)  # a piece of one sign: the side it slides in
            one_b, one_c = -mu * s, _sliding_term(law, neg, s, q0 + q1)
        if one_sign is not np.True_:
            up = _collapsed((v0 < 0.0) & (0.0 < v1))  # a crossing from negative to positive
            on_break |= ~(one_sign | up | (v1 < 0.0) & (0.0 < v0))
            # A crossing's factors per end: (-tau_minus, mu_minus) sliding
            # backward, (-tau_plus, -mu_plus) forward.  x - y * z is x + (-y) * z
            # and IEEE addition commutes, so this form has the bits of both
            # scalar forms; swapping a downward crossing's ends would reorder
            # b's three terms.
            t0, m0 = _pick(up, -tm, -tp), _pick(up, mm, -mp)
            t1, m1 = _pick(up, -tp, -tm), _pick(up, -mp, mm)
            k = s / np.abs(q1 - q0)
            a = a + _pick(one_sign, 0.0, 0.5 * (mm - mp) * k)
            cross_b = (-tm - tp + m0 * q0 + m1 * q1) * k
            cross_c = (t0 * q0 + t1 * q1 + 0.5 * (m0 * q0 * q0 + m1 * q1 * q1)) * k
        b = b + _pick(one_sign, one_b, cross_b)
        c = c + _pick(one_sign, one_c, cross_c)
    return a, b, c, on_break


def _poly_roots_rows(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``balance._poly_roots_in`` elementwise: the first root kept, and how
    many were kept."""
    slack = balance._ROOT_SLACK * np.maximum(hi - lo, np.maximum(np.abs(lo), np.abs(hi)))

    def keep(x: np.ndarray) -> np.ndarray:
        return (lo - slack <= x) & (x <= hi + slack)

    linear = _collapsed(a == 0.0)  # on default runs a call is all-linear or all-quadratic
    x_lin = n_lin = x_quad = n_quad = None
    if linear is not np.False_:
        x_lin = -c / b
        n_lin = np.where(b == 0.0, 0, keep(x_lin))
    if linear is not np.True_:
        disc = b * b - 4.0 * a * c
        near = (disc < 0.0) & (disc > -balance._DISC_RTOL * (b * b + np.abs(4.0 * a * c)))
        disc = np.where(near, 0.0, disc)
        sq = np.sqrt(disc)
        q = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), -0.5 * sq)
        x1 = np.where(q != 0.0, q / a, 0.0)  # q == 0 leaves the single root 0.0
        x2 = c / q
        keep1 = keep(x1)
        keep2 = (q != 0.0) & keep(x2)
        x_quad = np.where(keep1, x1, x2)
        n_quad = np.where(disc < 0.0, 0, keep1.astype(int) + keep2)
    return _pick(linear, x_lin, x_quad), _pick(linear, n_lin, n_quad)


def _closest_to_zero_rows(lo, hi) -> np.ndarray:
    return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.where(hi < 0.0, hi, lo))
