"""The midpoint grid: the package's one numpy module.

``engine.simulate``, and ``engine.cycle_displacement`` given an explicit
``dt``, integrate on a composite midpoint grid with a sample at every
corner.  Its step times are known up front, so the gait is sampled and the
balance solved for a block of steps at a time, bit for bit as the scalar
loop (``shape_at``/``rate_at`` and ``balance.solve_velocity`` per step)
would: the same float operations in the same order.  Each gait's kinematics
is written once, in ``body`` (``gait._kinematics``), over a namespace of
array operations: ``shape_at``/``rate_at`` evaluate it on one float, and
``_shapes`` on numpy arrays over a block (``_XP``).  The gait repeats
every period, so ``simulate`` solves period 0 alone: a later step takes the
velocity, regime and end length of the period-0 step it repeats, read at
that step's exact phase rather than at its own time modulo the period (the
same phase up to rounding), and moves ``x1`` over its own width.

Each row is resolved by the solver's one candidate rule, ``balance._plan``,
from the signs of its candidate functions, read from its gait family's
model with no force sum at its breakpoints: the stage model
``balance._AffineStage`` on constant-rate gaits (``_KnownRows``), the two
closed-form breakpoint forces on profile gaits (``_ProfileRows``).  A
block's rows come in time order, so on a constant-rate gait each stage's
rows are one slice of the block, placed by that stage's model alone; a block
out of order would lose rows to the fallback below, never bits.  Rows of
one sign pattern come in runs, and ``_resolve`` asks each run's plan once.
A row no model places takes +0.0 where every rate is 0 (a body at rest),
and otherwise goes to ``balance._solve`` on its pieces, the one fallback:
the scalar layer is reached only through it and ``gait._pieces_at``.

Block format: ``n`` shapes are nodal arc-lengths ``arcs`` ``(n, P + 1)`` and
per-piece end rates ``rates`` ``(n, P, 2)``, ``P`` fixed per gait: 1 for a
breather, 2 for the two-segment gaits, 3 for a square wave, whose rows with
fewer pieces end in zero-length pieces repeating the last node and rate
(the kinematics' padding past its ``count``).  In memory both are pieces
first, ``(P + 1, n)`` and ``(P, 2, n)``, and handed out as transposed views:
``_shapes`` writes one contiguous row per node or piece end, and ``_Rows``,
which reads rows along the last axis, takes that memory as it is.  A block's
phases (times modulo the period) have ``np.remainder``'s bits; on period
0's grid, ``[0, period]``, ``_phases`` forms them exactly as ``t + 0.0``
below the period and ``t - period`` at it, with no ``np.remainder`` call.
"""

from __future__ import annotations

import math
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import analytic, balance
from .body import GaitProgram
from .errors import DegenerateSubstrateError, StepLimitError, _require_above
from .friction import FrictionLaw

__all__ = ["simulate", "cycle"]

# Most midpoint steps one call may take; a smaller dt raises StepLimitError
# before any grid is built.
_MAX_STEPS = 1_000_000
# Steps the kernel samples and solves at once.  Fixed blocks keep the numpy
# temporaries one size from block to block, so the allocator reuses them
# instead of growing the heap with each run length.  Sampling and solving a
# block of 16 rows costs ~0.33 ms and one of 2048 rows ~0.78 ms (medians
# over the 15 benchmark classes, seeds 1-3, fastest of 40 timings on a
# shared 2-core x86-64 host; 0.21-0.77 and 0.58-1.07 ms by class), so the
# fixed part dominates a small block.  A default period (2000-2004 steps)
# fits one block of 2048, and ``simulate`` solves one period whatever
# ``n_periods`` is: a default 2-period simulate takes ~1.13 ms at 2048 rows
# against ~2.0 ms at 512 (medians, fastest of 15, same host), and a
# 4096-row block would change no default run.
_BLOCK = 2048
# ``codes`` index this to give each step's regime name
_REGIME_NAMES = np.asarray(balance.REGIMES, dtype=object)


def simulate(
    law: FrictionLaw, gait: GaitProgram, n_periods: int, dt: float, x0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...], dict[str, int], float]:
    """Grid times, left-end positions and body lengths over ``n_periods``
    periods from ``x0``, the regime of each step, the steps per regime and
    the largest force residual; period 0 alone is sampled and solved, and
    every later period repeats it (see the module docstring)."""
    times, counts = _stage_grid(gait, dt, n_periods)
    m = sum(counts)  # steps per period
    lengths = np.empty(len(times))
    x1dot, codes, residual_max = _kernel(law, gait, times[: m + 1], lengths[: m + 1])
    lengths[m + 1 :].reshape(n_periods - 1, m)[:] = lengths[1 : m + 1]
    # x1[i + 1] = x1[i] + x1dot * dt, in step order
    x1 = np.empty(len(times))
    x1[0] = x0
    steps = np.subtract(times[1:], times[:-1], out=x1[1:]).reshape(n_periods, m)
    steps *= x1dot
    np.add.accumulate(x1, out=x1)
    regimes = tuple(_REGIME_NAMES[codes].tolist()) * n_periods
    counts = {name: n * n_periods for name, n in _regime_counts(codes).items()}
    return times, x1, lengths, regimes, counts, residual_max


def cycle(
    law: FrictionLaw, gait: GaitProgram, dt: float
) -> tuple[float, list[float], dict[str, int], float]:
    """Net displacement over one period, per-stage sums, regime counts and
    the largest force residual."""
    times, counts = _stage_grid(gait, dt)
    x1dot, codes, residual_max = _kernel(law, gait, times, None)
    dx = x1dot * np.diff(times)
    cuts = list(accumulate(counts, initial=0))  # each stage's steps are one slice
    stage_sums = [_sum_in_order(dx[i0:i1]) for i0, i1 in zip(cuts, cuts[1:])]
    return _sum_in_order(dx), stage_sums, _regime_counts(codes), residual_max


def _regime_counts(codes: np.ndarray) -> dict[str, int]:
    """Steps per regime, keyed in order of first occurrence."""
    counts = np.bincount(codes, minlength=len(balance.REGIMES)).tolist()
    seen = [c for c, n in enumerate(counts) if n]
    seen.sort(key=lambda c: int(np.argmax(codes == c)))
    return {balance.REGIMES[c]: counts[c] for c in seen}


def _stage_grid(
    gait: GaitProgram, dt: float, n_periods: int = 1
) -> tuple[np.ndarray, list[int]]:
    """Sample times over ``n_periods`` periods, plus the step count of each
    stage of a period.

    Raises :class:`StepLimitError` when ``n_periods`` periods at ``dt``
    would take more than ``_MAX_STEPS`` steps, before building anything.
    """
    _require_above(0.0, "dt", dt)
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
    counts = []
    for a, b in spans:
        n = max(1, math.ceil((b - a) / dt - 1e-9))
        times.append(a + (b - a) * np.arange(1, n + 1) / n)
        counts.append(n)
    grid = np.concatenate(times)
    grid[-1] = gait.period
    # period p's times are p * period + grid[1:]; period 0's are the grid's own
    out = np.empty(1 + n_periods * (len(grid) - 1))
    out[0] = 0.0
    periods = out[1:].reshape(n_periods, -1)
    np.add(np.arange(n_periods)[:, None] * gait.period, grid[1:], out=periods)
    return out, counts


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
        tm = _phases(mids, gait.period)  # the samplers' and the stage models' time
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

    A block's rows come in time order (period 0's grid, cut into blocks),
    so each stage's rows are one slice of the block, found by one search of
    the stage starts, and each stage places its slice with its own numbers.
    Any order is safe: a row is placed only strictly inside the stage whose
    slice holds it, the stage a per-row lookup would find, and the slices
    never overlap, so a block out of time order loses rows to
    ``balance._solve``, never bits.
    """

    def __init__(self, law: FrictionLaw, models: list[balance._AffineStage]) -> None:
        self.law, self.models = law, models
        self.t0 = np.array([m.t0 for m in models])
        # per stage with functions: its index, ends, width and margin, the
        # functions a row must check (a column each of their values at the
        # stage start and their changes over it) and the negated breakpoints
        self.stages, self.width = [], 0  # width: the most functions of a stage
        for k, m in enumerate(models):
            if m.conds is None:
                continue  # nothing is strictly inside its stage
            margin = balance._MARGIN * m.atol
            # g0 + th * (g1 - g0) runs monotonically from g0 to g0 + (g1 - g0)
            # as th goes from 0 to 1, in floats too: a function of one sign
            # beyond the margin at both of those ends keeps it, and no row
            # need check it
            live = [(a, b - a) for a, b in zip(*m.conds) if not _beyond(margin, a, a + (b - a))]
            g0 = np.array([a for a, _ in live]).reshape(-1, 1)
            dg = np.array([d for _, d in live]).reshape(-1, 1)
            neg = np.array([-b for b in m.breaks]).reshape(-1, 1, 1)
            self.stages.append((k, m.t0, m.t1, m.w, margin, g0, dg, neg))
            self.width = max(self.width, len(live))

    def solve(
        self, tm: np.ndarray, arcs: np.ndarray, rates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's ``x1dot``, regime code (an index into
        ``balance.REGIMES``) and residual, for the block sampled at times
        ``tm`` (modulo the period)."""
        rows = _Rows(self.law, arcs, rates)
        n = len(tm)
        # a run has one stage and one sign pattern: each row's stage, -1
        # where no model places it, then the signs of its stage's functions
        signs = np.full((1 + self.width, n), -1)
        placed = signs[0]
        # each stage's first row; the running maximum keeps the slices apart
        # on a block out of time order
        cuts = [*np.maximum.accumulate(np.searchsorted(tm, self.t0)).tolist(), n]
        # Each slice's tests write into views of two block-long masks: masks
        # as long as a slice would take a new size from numpy's cache of
        # small buffers with nearly every slice length, and hold it there.
        ok, test = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        for k, t0, t1, w, margin, g0, dg, neg in self.stages:
            i0, i1 = cuts[k], cuts[k + 1]
            if i0 == i1:
                continue
            t, o, x = tm[i0:i1], ok[i0:i1], test[i0:i1]
            np.less(t0, t, out=o)
            o &= np.less(t, t1, out=x)
            if len(g0):
                with np.errstate(all="ignore"):  # as model.at computes them
                    g = g0 + (t - t0) / w * dg
                # every function beyond the margin, and finite (NaN fails both)
                size = np.abs(g)
                o &= np.greater(size.min(axis=0), margin, out=x)
                o &= np.less(size.max(axis=0), math.inf, out=x)
                np.greater(g, 0.0, out=signs[1 : 1 + len(g), i0:i1])
            # the row's breakpoints are the model's: a piece merged away at a
            # node the sampler could not resolve can take a rate with it (a
            # contiguous copy of the slice compares several times faster)
            hit = np.ascontiguousarray(rows.flat[:, i0:i1]) == neg
            o &= hit.any(axis=1).all(axis=0, out=x)
            o &= hit.any(axis=0).all(axis=0, out=x)
            placed[i0:i1][o] = k

        def answer(i0: int, i1: int) -> tuple:
            k = int(placed[i0])
            if k < 0:
                return "const", math.nan
            model = self.models[k]
            return _answer(balance._settled(self.law, model.at(float(tm[i0]))), model.breaks)

        return _resolve(self.law, rows, signs, answer)


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


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, left to right."""
    return float(np.add.accumulate(np.concatenate([[0.0], values]))[-1])


# Checked block arcs, and a function computing their rates.
_Shapes = tuple[np.ndarray, Callable[[], np.ndarray]]


def _merged(conds: list, values: list):
    """``values``, one per branch and alike in structure (lists, tuples,
    arrays or numbers), each element taken from the first branch whose
    condition holds there, or from the last."""
    if isinstance(values[0], (list, tuple)):
        return [_merged(conds, list(column)) for column in zip(*values)]
    out = values[-1]
    for cond, value in zip(reversed(conds), values[-2::-1]):
        if value is not out:
            out = np.where(cond, value, out)
    return out


# The array operations of ``body._SCALAR``, on numpy arrays: ``cases``
# evaluates every branch over the block and merges them, and ``each`` calls a
# custom profile on every phase.
_XP = SimpleNamespace(
    asarray=lambda x: np.asarray(x, dtype=float),
    cases=lambda conds, branches, *args: _merged(conds, [f(*args) for f in branches]),
    where=np.where,
    logical_not=np.logical_not,
    minimum=np.minimum,
    searchsorted=np.searchsorted,
    sin=np.sin,
    # libm pow, as Python's ``** 2`` is; numpy's ``**`` and ``np.square``
    # compute ``s * s``, which rounds differently on about 1 sine in 1200
    pow=np.float_power,
    each=lambda f, x: np.array([f(v) for v in x.tolist()], dtype=float),
)


def _shapes(gait: GaitProgram, times: np.ndarray, tm: np.ndarray | None = None) -> _Shapes:
    """``shape_at`` at each of ``times`` as one block, and a function giving
    ``rate_at`` there: ``gait._kinematics`` over the block.  A piece is valid
    where it pads its row or increases in both coordinates; an invalid shape
    raises :func:`_require_valid`'s error.  ``tm`` is ``times`` modulo the
    period, where given."""
    if tm is None:
        tm = _phases(times, gait.period)
    refs, arcs, count, rates = gait._kinematics(_XP, tm)
    n, n_pieces = len(tm), len(arcs) - 1
    ok = np.ones(n, dtype=bool)
    for j in range(n_pieces):
        ok &= (j >= count) | (refs[j + 1] > refs[j]) & (arcs[j + 1] > arcs[j])
    _require_valid(gait, times, ok)
    block = np.empty((n_pieces + 1, n))  # pieces first: one contiguous row per node
    for j, arc in enumerate(arcs):
        block[j] = arc

    def rate_block() -> np.ndarray:
        out = np.empty((n_pieces, 2, n))
        for j, (r0, r1) in enumerate(rates()):
            out[j, 0], out[j, 1] = r0, r1
        return out.transpose(2, 0, 1)

    return block.T, rate_block


def _phases(times: np.ndarray, period: float) -> np.ndarray:
    """``np.remainder(times, period)``, bit for bit.  On ``[0, 2 * period)``
    the remainder is ``t + 0.0`` below the period (``+ 0.0`` turns -0.0 into
    the +0.0 ``np.remainder`` gives) and ``t - period`` from it on, exact by
    Sterbenz's lemma; the midpoint grid's period-0 times all lie there.  Any
    other block (negative, NaN or infinite times, or later periods) takes
    ``np.remainder``."""
    if not (times.min() >= 0.0 and times.max() < 2.0 * period):
        return np.remainder(times, period)
    out = times + 0.0
    return np.subtract(times, period, out=out, where=times >= period)


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
    the block; pieces and breakpoints run along the first.  On ``_shapes``'
    blocks, which are stored so, this copies nothing.  ``pieces`` are
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
    n = np.count_nonzero(mask)
    if n == mask.size:
        return np.True_
    return mask if n else np.False_


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
    many were kept.  The quadratic root is ``balance._quadratic_roots``'s,
    whose power-of-two rescale runs only on a call where some row's ``b^2 +
    |4ac|`` leaves ``[balance._SPAN_MIN, balance._SPAN_MAX]``."""
    slack = balance._ROOT_SLACK * np.maximum(hi - lo, np.maximum(np.abs(lo), np.abs(hi)))

    def keep(x: np.ndarray) -> np.ndarray:
        return (lo - slack <= x) & (x <= hi + slack)

    linear = _collapsed(a == 0.0)  # on default runs a call is all-linear or all-quadratic
    x_lin = n_lin = x_quad = n_quad = None
    if linear is not np.False_:
        x_lin = -c / b
        n_lin = np.where(b == 0.0, 0, keep(x_lin))
    if linear is not np.True_:
        bb, ac = b * b, 4.0 * a * c
        span = bb + np.abs(ac)
        out = ~((span >= balance._SPAN_MIN) & (span <= balance._SPAN_MAX))  # NaN too, as in balance
        if out.any():
            eb, ea, ec = (np.where(v == 0.0, balance._NO_EXPONENT, np.frexp(v)[1]) for v in (b, a, c))
            k = np.maximum(np.maximum(eb, (ea + ec) // 2), ea - 1021) * out
            a, b, c = np.ldexp(a, -k), np.ldexp(b, -k), np.ldexp(c, -k)
            bb, ac = b * b, 4.0 * a * c
            span = bb + np.abs(ac)
        disc = bb - ac
        near = (disc < 0.0) & (disc > -balance._DISC_RTOL * span)
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
