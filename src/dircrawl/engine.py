"""Time integration of gaits, per-cycle accounting, verification and sweeps.

Because the substrate is homogeneous, the solved left-end velocity depends
on time only (never on position), so trajectories are pure quadrature of
``x1dot(t)``.  Two integrators share the gait's stage boundaries (corners):

* the midpoint grid, composite midpoint with sample points forced at every
  corner, which ``simulate`` always uses and ``cycle_displacement`` uses
  when given an explicit ``dt``.  Its step times are all known up front, so
  one kernel samples the gait and solves the balance for a block of steps
  at a time (``body.sample``, ``balance.solve_velocity_batch``), bit for bit
  as the scalar ``solve_velocity`` loop would;
* the default per-cycle integrator, :func:`dircrawl.analytic.adaptive_gauss`
  on each stage, split wherever the balance structure (regime and the sign
  pattern of the velocity field) changes inside the stage.  Between such
  switches the velocity is smooth, often constant, so a few Gauss–Legendre
  nodes per piece reach the accuracy of thousands of midpoint steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Sequence, Union

import numpy as np

from . import analytic
from .balance import REGIMES, solve_velocity, solve_velocity_batch
from .body import (
    Breather,
    CompositeStride,
    ConstantLength,
    GaitProgram,
    SquareWave,
    TwoSegmentPath,
)
from .errors import (
    DegenerateSubstrateError,
    MixedRheologyError,
    StepLimitError,
    UnsupportedPairError,
)
from .friction import FrictionLaw

__all__ = [
    "Trajectory",
    "CycleReport",
    "VerifyCheck",
    "VerifyReport",
    "SweepRow",
    "simulate",
    "cycle_displacement",
    "verify",
    "sweep",
    "figure6_data",
    "figure7_data",
    "FIG6_COLUMNS",
    "FIG7_COLUMNS",
]

_DEFAULT_STEPS_PER_PERIOD = 2000
# Most midpoint steps one call may take; a smaller dt raises StepLimitError
# before any grid is built.
_MAX_STEPS = 1_000_000
# Steps the midpoint kernel samples and solves at once.  Fixed blocks keep
# the numpy temporaries one size from block to block, so the allocator
# reuses them instead of growing the heap with each run length.
_BLOCK = 512
# Error tolerance of the default per-cycle integrator on each stage,
# relative to max(1, |stage displacement|).
_CYCLE_TOL = 1e-11


@dataclass(frozen=True)
class Trajectory:
    """Sampled motion of the crawler.

    ``regimes[i]`` tags the balance regime of the step from ``times[i]`` to
    ``times[i+1]``; positions satisfy ``x2 - x1 == l`` at every sample by
    construction.  ``meta`` records the run's ``regime_counts`` (steps per
    regime, in order of first occurrence) and ``residual_max``, the largest
    force residual of any step's balance solve.
    """

    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    l: np.ndarray
    regimes: tuple[str, ...]
    meta: dict[str, Any]

    @property
    def net_displacement(self) -> float:
        return float(self.x1[-1] - self.x1[0])


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle displacement accounting for one gait period.

    ``n_steps`` is the number of balance solves the cycle took; each one is
    counted once in ``meta["regime_counts"]``.  ``dt`` is the target step of
    the midpoint grid, or None when the default stage-wise Gauss–Legendre
    integrator ran (its solves are quadrature nodes, not steps of one size).
    """

    gait_kind: str
    net_displacement: float
    contributions: tuple[tuple[str, float], ...]
    analytic_value: float | None
    abs_residual: float | None
    rel_residual: float | None
    admissibility: analytic.WaveAdmissibility | None
    n_steps: int
    dt: float | None
    meta: dict[str, Any]


def _stage_spans(gait: GaitProgram) -> list[tuple[float, float]]:
    """The gait's stages in one period, between consecutive corner times."""
    return analytic._corner_spans(gait.corner_times(), gait.period)


def _stage_grid(
    gait: GaitProgram, dt: float, n_periods: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """One period of sample times plus the stage index of each step.

    Raises :class:`StepLimitError` when ``n_periods`` periods at ``dt``
    would take more than ``_MAX_STEPS`` steps, before building anything.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    spans = _stage_spans(gait)
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
    return grid, np.concatenate(stages)


def simulate(
    law: FrictionLaw,
    gait: GaitProgram,
    n_periods: int = 1,
    dt: float | None = None,
    x0: float = 0.0,
) -> Trajectory:
    """Integrate the gait for ``n_periods`` periods starting from ``x0``.

    Always on the midpoint grid: ``dt`` is the target step within each
    stage (default: period/2000); stage boundaries are always sampled
    exactly.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    T = gait.period
    if dt is None:
        dt = T / _DEFAULT_STEPS_PER_PERIOD

    period_times, _ = _stage_grid(gait, dt, n_periods)
    times = np.concatenate(
        [period_times[:1]] + [p * T + period_times[1:] for p in range(n_periods)]
    )

    lengths = np.empty(len(times))
    lengths[0] = gait.shape_at(float(times[0])).length
    x1dot, codes, residual_max = _midpoint_kernel(law, gait, times, lengths)
    x1 = np.empty(len(times))
    x1[0] = x0
    x1[1:] = x1dot * np.diff(times)
    np.add.accumulate(x1, out=x1)  # x1[i + 1] = x1[i] + x1dot * dt, in step order

    meta = {
        "gait_kind": type(gait).__name__,
        "n_periods": n_periods,
        "dt": dt,
        "law": law,
        "gait": gait,
        "regime_counts": _regime_counts(codes),
        "residual_max": residual_max,
    }
    return Trajectory(
        times=times,
        x1=x1,
        x2=x1 + lengths,
        l=lengths,
        regimes=tuple(np.asarray(REGIMES, dtype=object)[codes]),
        meta=meta,
    )


def _midpoint_kernel(
    law: FrictionLaw, gait: GaitProgram, times: np.ndarray, lengths: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Balance velocity and regime code of every step of the grid ``times``,
    solved at the step midpoints, plus the largest residual.

    With ``lengths`` given, it is filled with the body length at each grid
    time after the first.  Steps go in blocks of ``_BLOCK``; every value is
    the one the scalar loop (``solve_velocity`` per step, then ``shape_at``
    at the step's end) computes.  A failing block is replayed through that
    loop, so the error raised is the first the scalar loop would raise.
    """
    n = len(times) - 1
    x1dot = np.empty(n)
    codes = np.empty(n, dtype=np.int8)
    residual_max = 0.0
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        ends = times[i0 + 1 : i1 + 1]
        mids = 0.5 * (times[i0:i1] + ends)
        try:
            sol = solve_velocity_batch(law, *gait.sample(mids))
            if lengths is not None:
                lengths[i0 + 1 : i1 + 1] = gait.sample(ends)[0][:, -1]
        except Exception:
            _scalar_steps(law, gait, mids, ends if lengths is not None else None)
            raise
        x1dot[i0:i1] = sol.x1dot
        codes[i0:i1] = sol.regime
        residual_max = max(residual_max, float(sol.residual.max()))
    return x1dot, codes, residual_max


def _scalar_steps(
    law: FrictionLaw, gait: GaitProgram, mids: np.ndarray, ends: np.ndarray | None
) -> None:
    """The scalar midpoint loop over one block, run for its errors only."""
    for i, tm in enumerate(mids.tolist()):
        try:
            solve_velocity(law, gait.shape_at(tm), gait.rate_at(tm))
        except DegenerateSubstrateError as exc:
            raise DegenerateSubstrateError(f"{exc} (at t = {tm})") from exc
        if ends is not None:
            gait.shape_at(float(ends[i]))


def _regime_counts(codes: np.ndarray) -> dict[str, int]:
    """Steps per regime, keyed in order of first occurrence."""
    steps = [np.flatnonzero(codes == c) for c in range(len(REGIMES))]
    seen = sorted((int(idx[0]), c) for c, idx in enumerate(steps) if len(idx))
    return {REGIMES[c]: len(steps[c]) for _, c in seen}


_STAGE_LABELS = {
    SquareWave: ("wave_enter", "wave_inside", "wave_exit"),
    CompositeStride: ("seg1_contract", "scale_up", "seg1_extend", "scale_down"),
}


# Stage or edge breakdown of a closed form, where verify checks one.
_Breakdown = Union[analytic.SlidingDisplacement, analytic.StrideDisplacement, None]


def _analytic_cycle_value(
    law: FrictionLaw, gait: GaitProgram
) -> tuple[
    float | None, analytic.WaveAdmissibility | None, str | None, _Breakdown
]:
    """Closed-form per-cycle displacement when one exists, plus wave
    admissibility, a note when no closed form applies, and the stage or
    edge breakdown of the closed form for sliding waves and strides."""
    if isinstance(gait, (Breather, ConstantLength)):
        value = analytic.breather_cycle_displacement(
            law, gait._value, gait._rate, gait.period, corners=gait.monotone_corners()
        )
        return value, None, None, None
    if isinstance(gait, CompositeStride):
        try:
            stride = analytic.composite_stride_displacement(
                law, gait.lam, gait.delta, gait.h
            )
        except MixedRheologyError as exc:
            return None, None, str(exc), None
        return stride.total, None, None, stride
    if isinstance(gait, SquareWave):
        adm = analytic.wave_admissibility(
            law, gait.epsilon, gait.speed, gait.delta, gait.ref_length
        )
        if adm.regime == "stick_slip":
            value = analytic.stickslip_displacement(gait.epsilon, gait.delta)
            return value, adm, None, None
        if adm.regime == "sliding":
            sliding = analytic.sliding_cycle_displacement(
                law, gait.epsilon, gait.speed, gait.delta, gait.ref_length
            )
            return sliding.total, adm, None, sliding
        return None, adm, f"wave infeasible: {adm.violated_condition}", None
    return None, None, f"no closed form for gait {type(gait).__name__}", None


def _midpoint_cycle(
    law: FrictionLaw, gait: GaitProgram, dt: float
) -> tuple[float, list[float], dict[str, int]]:
    """Net displacement, per-stage sums and regime counts on the midpoint grid."""
    times, stages = _stage_grid(gait, dt)
    x1dot, codes, _ = _midpoint_kernel(law, gait, times, None)
    dx = x1dot * np.diff(times)
    stage_sums = [_sum_in_order(dx[stages == k]) for k in range(stages[-1] + 1)]
    return _sum_in_order(dx), stage_sums, _regime_counts(codes)


def _sum_in_order(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, left to right."""
    return float(np.add.accumulate(np.concatenate([[0.0], values]))[-1])


def _gauss_cycle(
    law: FrictionLaw, gait: GaitProgram
) -> tuple[float, list[float], dict[str, int]]:
    """Net displacement, per-stage integrals and regime counts from the
    stage-wise adaptive Gauss–Legendre integrator."""
    regime_counts: dict[str, int] = {}

    def velocity(t: float) -> tuple[float, tuple[str, tuple[int, ...]]]:
        rate = gait.rate_at(t)
        sol = solve_velocity(law, gait.shape_at(t), rate)
        regime_counts[sol.regime] = regime_counts.get(sol.regime, 0) + 1
        x = sol.x1dot
        signs = tuple((x + r > 0.0) - (x + r < 0.0) for pair in rate.seg_rates for r in pair)
        return x, (sol.regime, signs)

    stage_sums = [
        analytic.adaptive_gauss(velocity, a, b, _CYCLE_TOL) for a, b in _stage_spans(gait)
    ]
    return sum(stage_sums), stage_sums, regime_counts


def _cycle(
    law: FrictionLaw, gait: GaitProgram, dt: float | None
) -> tuple[CycleReport, _Breakdown]:
    if dt is None:
        x, stage_sums, regime_counts = _gauss_cycle(law, gait)
    else:
        x, stage_sums, regime_counts = _midpoint_cycle(law, gait, dt)

    labels = _STAGE_LABELS.get(type(gait))
    if labels is not None and len(labels) == len(stage_sums):
        contributions = tuple(zip(labels, stage_sums))
    else:
        contributions = tuple((f"stage_{k}", s) for k, s in enumerate(stage_sums))

    value, adm, note, breakdown = _analytic_cycle_value(law, gait)
    abs_res = abs(x - value) if value is not None else None
    rel_res = abs_res / max(1.0, abs(value)) if value is not None else None

    meta: dict[str, Any] = {"regime_counts": regime_counts}
    if note:
        meta["note"] = note
    if isinstance(gait, CompositeStride):
        meta["edge_parameterization"] = "constant speed in shape space over quarter periods"
    report = CycleReport(
        gait_kind=type(gait).__name__,
        net_displacement=x,
        contributions=contributions,
        analytic_value=value,
        abs_residual=abs_res,
        rel_residual=rel_res,
        admissibility=adm,
        n_steps=sum(regime_counts.values()),
        dt=dt,
        meta=meta,
    )
    return report, breakdown


def cycle_displacement(
    law: FrictionLaw, gait: GaitProgram, dt: float | None = None
) -> CycleReport:
    """Integrate one period and attach the matching closed form when one
    exists (integration always runs, even for infeasible wave requests).

    With ``dt=None`` the default stage-wise Gauss–Legendre integrator runs;
    an explicit ``dt`` selects the midpoint grid that ``simulate`` uses.
    """
    return _cycle(law, gait, dt)[0]


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    numeric: float
    analytic: float
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, numeric: float, target: float, tol: float) -> VerifyCheck:
    residual = abs(numeric - target)
    return VerifyCheck(
        name, numeric, target, residual, tol, residual <= tol * max(1.0, abs(target))
    )


def verify(
    law: FrictionLaw, gait: GaitProgram, dt: float | None = None, tol: float = 1e-6
) -> VerifyReport:
    """Compare simulated displacements against the closed forms.

    Raises :class:`UnsupportedPairError` when no closed form covers the
    (law, gait) pair, and ``ValueError`` for a non-finite ``tol``.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    report, breakdown = _cycle(law, gait, dt)
    if report.analytic_value is None:
        raise UnsupportedPairError(
            f"no closed-form reference for {type(gait).__name__} on this substrate"
            + (f" ({report.meta.get('note')})" if report.meta.get("note") else "")
        )
    checks = [_check("cycle_displacement", report.net_displacement, report.analytic_value, tol)]
    if isinstance(breakdown, analytic.SlidingDisplacement):
        for label, target in zip(
            ("wave_enter", "wave_inside", "wave_exit"),
            (breakdown.enter, breakdown.inside, breakdown.exit),
        ):
            numeric = dict(report.contributions)[label]
            checks.append(_check(f"stage:{label}", numeric, target, tol))
        checks.append(
            _check(
                "stage_identity_exit_minus_enter",
                breakdown.exit - breakdown.enter,
                gait.epsilon * gait.delta,
                1e-10,
            )
        )
    if isinstance(breakdown, analytic.StrideDisplacement):
        for (label, numeric), target in zip(report.contributions, breakdown.edges):
            checks.append(_check(f"edge:{label}", numeric, target, tol))
    return VerifyReport(tuple(checks))


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a parameter sweep; ``error`` is set (and ``report``
    None) when that point failed, without aborting the sweep."""

    index: int
    params: tuple[tuple[str, float], ...]
    report: CycleReport | None
    error: str | None


# Configuration key -> constructor field, per gait class: the CLI's gait
# keys, which sweep axes may use in place of the field names.
_GAIT_KEYS: dict[type, dict[str, str]] = {
    Breather: {"L": "ref_length", "delta": "delta", "T": "period"},
    ConstantLength: {
        "L": "ref_length",
        "x_star": "split",
        "l1_rest": "seg1_rest",
        "delta": "delta",
        "T": "period",
    },
    TwoSegmentPath: {
        "L": "ref_length",
        "x_star": "split",
        "times": "times",
        "l1": "l1",
        "l2": "l2",
    },
    CompositeStride: {"lambda": "lam", "delta": "delta", "h": "h", "T": "period"},
    SquareWave: {"L": "ref_length", "delta": "delta", "epsilon": "epsilon", "c": "speed"},
}


def _apply_axis(obj: Any, field_name: str, value: float) -> Any:
    name = _GAIT_KEYS.get(type(obj), {}).get(field_name, field_name)
    if not hasattr(obj, name):
        raise ValueError(f"{type(obj).__name__} has no field {field_name!r}")
    return replace(obj, **{name: value})


def sweep(
    law: FrictionLaw,
    gait: GaitProgram,
    axes: Sequence[tuple[str, Sequence[float]]],
    dt: float | None = None,
) -> list[SweepRow]:
    """Cartesian-product sweep over ``law.*`` / ``gait.*`` fields.

    Each axis is ``(path, values)`` with path like ``"gait.epsilon"`` or
    ``"law.tau_plus"``.  Rows are returned in grid order (last axis fastest);
    per-row failures are captured in the row, except :class:`StepLimitError`,
    which rejects ``dt`` for the whole sweep.
    """
    for path, _ in axes:
        target, _, field_name = path.partition(".")
        if target not in ("law", "gait") or not field_name:
            raise ValueError(f"axis path must be 'law.<field>' or 'gait.<field>', got {path!r}")

    grid = list(product(*(values for _, values in axes))) if axes else [()]

    def run(idx: int, point: tuple[float, ...]) -> SweepRow:
        params = tuple((axes[k][0], float(v)) for k, v in enumerate(point))
        try:
            row_law, row_gait = law, gait
            for (path, _), value in zip(axes, point):
                target, _, field_name = path.partition(".")
                if target == "law":
                    row_law = _apply_axis(row_law, field_name, value)
                else:
                    row_gait = _apply_axis(row_gait, field_name, value)
            return SweepRow(idx, params, cycle_displacement(row_law, row_gait, dt=dt), None)
        except StepLimitError:
            raise
        except Exception as exc:  # captured per row by contract
            return SweepRow(idx, params, None, f"{type(exc).__name__}: {exc}")

    return [run(idx, point) for idx, point in enumerate(grid)]


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

FIG6_COLUMNS = ("alpha", "epsilon", "dx1_over_L")
FIG7_COLUMNS = ("beta", "beta_squared", "epsilon", "dx1_over_L")

_FIG_DEFAULT_EPSILONS = tuple(round(-0.98 + 0.02 * k, 10) for k in range(99))


def figure6_data(
    alphas: Sequence[float] | None = None,
    epsilons: Sequence[float] | None = None,
    L: float = 1.0,
) -> list[tuple[float, float, float]]:
    """Best stick-slip displacement per cycle on dry substrates, tabulated
    over wave amplitude for one curve per asymmetry ratio."""
    if alphas is None:
        alphas = (0.25, 0.5, 0.75)
    if epsilons is None:
        epsilons = _FIG_DEFAULT_EPSILONS
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be finite and positive, got {L!r}")
    rows = []
    for a in alphas:
        for e in epsilons:
            if not (math.isfinite(e) and e > -1.0):
                raise ValueError(f"epsilon must be finite and exceed -1, got {e!r}")
            value = 0.0 if e == 0.0 else analytic.stickslip_max_displacement_dry(a, e, L) / L
            rows.append((float(a), float(e), value))
    return rows


def figure7_data(
    betas: Sequence[float] | None = None,
    epsilons: Sequence[float] | None = None,
    delta_over_length: float = 0.25,
) -> list[tuple[float, float, float, float]]:
    """Sliding displacement per cycle on Newtonian substrates at fixed
    relative wave width, one curve per viscous asymmetry ratio."""
    if betas is None:
        betas = tuple(math.sqrt(b2) for b2 in (0.25, 0.5, 1.0, 2.0, 4.0))
    if epsilons is None:
        epsilons = _FIG_DEFAULT_EPSILONS
    if not 0.0 < delta_over_length < 1.0:
        raise ValueError("delta_over_length must lie in (0, 1)")
    rows = []
    for b in betas:
        for e in epsilons:
            if not -1.0 < e:
                raise ValueError("epsilon must exceed -1")
            value = (
                0.0
                if e == 0.0
                else analytic.newtonian_sliding_displacement(b, e, delta_over_length, 1.0)
            )
            rows.append((float(b), float(b) ** 2, float(e), value))
    return rows
