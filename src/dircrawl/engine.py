"""Time integration of gaits, per-cycle accounting, verification and sweeps.

Because the substrate is homogeneous, the solved left-end velocity depends
on time only (never on position), so trajectories are pure quadrature of
``x1dot(t)``.  Two integrators share the gait's stage boundaries (corners):

* the midpoint grid, composite midpoint with sample points forced at every
  corner, which ``simulate`` always uses and ``cycle_displacement`` uses
  when given an explicit ``dt``.  It runs in :mod:`dircrawl.midpoint`, the
  package's one numpy module, imported on first use so that the scalar
  paths never load numpy;
* the default per-cycle integrator, stage by stage.  On gaits whose piece
  rates are constant within each stage (square waves, two-segment paths,
  composite strides, through their private ``_stages()``), every force the
  solver compares is affine in t, so the times where its choice of solution
  switches are roots of affine functions (``balance._AffineStage``, the stage
  model the midpoint grid reads too); each stretch between them takes
  one balance solve to fix its structure and is integrated exactly: a
  constant, or the closed-form mean of the gap root
  (:func:`dircrawl.analytic._root_mean`), ``-c/b`` or the root of a
  quadratic with affine coefficients; no quadrature.  Profile gaits go to
  :func:`dircrawl.analytic.adaptive_gauss` on each stage: Gauss–Kronrod
  7–15 panels, extended to 31 nested nodes before they are bisected, and
  cut wherever the balance structure (regime and the sign pattern of the
  velocity field) changes inside the stage, so that one panel of 15 or 31
  nodes per smooth piece usually reaches the accuracy of thousands of
  midpoint steps.  Every profile node, on every law, takes
  ``balance._solve_profile``, the solver's node rule: most nodes are
  solved on the one gap whose root the solver is known to take.  On dry
  and Newtonian laws the velocity is linear in the profile rate ``p'``, so
  one solve per sign of ``p'`` stands for every node with that sign (see
  ``_rate_linear``).  Every solve is ``balance._solve``'s or has its bits,
  on the gait's ``_pieces_at(t)`` piece tuples, which gives the same bits
  as ``balance.solve_velocity`` on ``shape_at``/``rate_at`` without
  building and validating those objects per solve.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from itertools import product
from numbers import Integral
from typing import Any, Sequence, Union

from . import analytic, balance
from .balance import _AffineStage
from .body import (
    Breather,
    CompositeStride,
    ConstantLength,
    GaitProgram,
    SquareWave,
    TwoSegmentPath,
)
from .errors import MixedRheologyError, StepLimitError, UnsupportedPairError
from .errors import _isfinite, _require_above
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
# Error tolerance of the default per-cycle integrator on each stage,
# relative to max(1, |stage displacement|).
_CYCLE_TOL = 1e-11


@dataclass(frozen=True)
class Trajectory:
    """Sampled motion of the crawler: ``times``, ``x1``, ``x2`` and ``l`` are
    float64 numpy arrays.

    ``regimes[i]`` tags the balance regime of the step from ``times[i]`` to
    ``times[i+1]``; positions satisfy ``x2 - x1 == l`` at every sample by
    construction.  ``meta`` records the run's ``regime_counts`` (steps per
    regime, in order of first occurrence) and ``residual_max``, the largest
    force residual of any step's balance solve.
    """

    times: Any
    x1: Any
    x2: Any
    l: Any
    regimes: tuple[str, ...]
    meta: dict[str, Any]

    @property
    def net_displacement(self) -> float:
        return float(self.x1[-1] - self.x1[0])


@dataclass(frozen=True)
class CycleReport:
    """Per-cycle displacement accounting for one gait period.

    ``n_steps`` is the number of balance solves the cycle took; each one is
    counted once, under its regime, in ``meta["regime_counts"]``, and
    ``meta["residual_max"]`` is the largest force residual of any of them.
    ``dt`` is the target step of the midpoint grid, or None when the
    default stage-wise integrator ran.  Its solves are not steps of one
    size: on a constant-rate gait each fixes the structure of one stretch
    of a stage between switches; on a profile gait over a dry or Newtonian
    law each stands for every node whose profile rate has its sign, and
    over a mixed law each is a quadrature node or a switch bisection.  On
    every law a profile node takes ``balance._solve_profile``, whether it
    is solved on its known gap or in full.
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
    exactly.  The gait repeats every period, so period 0 alone is solved:
    a later step takes the velocity, regime and end length of the period-0
    step it repeats, read at that step's phase, and moves ``x1`` over its
    own width.  Raises ``ValueError`` naming ``n_periods`` unless it is a
    positive integer (a Python or numpy integer, not a bool), and naming
    ``x0`` unless it is finite.
    """
    if isinstance(n_periods, bool) or not isinstance(n_periods, Integral) or n_periods < 1:
        raise ValueError(f"n_periods must be a positive integer, got {n_periods!r}")
    n_periods = operator.index(n_periods)
    if not _isfinite("x0", x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    if dt is None:
        dt = gait.period / _DEFAULT_STEPS_PER_PERIOD

    from . import midpoint

    times, x1, lengths, regimes, regime_counts, residual_max = midpoint.simulate(
        law, gait, n_periods, dt, x0
    )
    meta = {"regime_counts": regime_counts, "residual_max": residual_max}
    return Trajectory(
        times=times, x1=x1, x2=x1 + lengths, l=lengths, regimes=regimes, meta=meta
    )


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
            law, gait._value, gait._rate, gait.period, corners=gait.corner_times()
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


def _gauss_cycle(
    law: FrictionLaw, gait: GaitProgram
) -> tuple[float, list[float], dict[str, int], float]:
    """Net displacement, per-stage integrals, regime counts and the largest
    force residual from the default stage-wise integrator.

    Every balance solve counts, the ones that fix a stage's structure or
    locate a switch included.
    """
    regime_counts: dict[str, int] = {}
    residual_max = 0.0

    pieces_at = gait._pieces_at
    stages = getattr(gait, "_stages", None)
    # the rest of the gaits are profile gaits: Breather and ConstantLength
    solve = balance._solve if stages is not None else balance._solve_profile

    def solved(pieces, l_total: float) -> tuple[float, tuple[str, tuple[int, ...]]]:
        nonlocal residual_max
        x, regime, residual, _, signs = solve(law, pieces, l_total)
        regime_counts[regime] = regime_counts.get(regime, 0) + 1
        if residual > residual_max:
            residual_max = residual
        return x, (regime, signs)

    def velocity(t: float) -> tuple[float, tuple[str, tuple[int, ...]]]:
        return solved(*pieces_at(t))

    if stages is not None:
        stage_sums = [_constant_rate_stage(law, velocity, *stage) for stage in stages()]
        return sum(stage_sums), stage_sums, regime_counts, residual_max
    if law.is_dry or law.is_newtonian:
        velocity = _rate_linear(solved, pieces_at)
    spans = analytic._corner_spans(gait.corner_times(), gait.period)
    stage_sums = [analytic.adaptive_gauss(velocity, a, b, _CYCLE_TOL) for a, b in spans]
    return sum(stage_sums), stage_sums, regime_counts, residual_max


def _rate_linear(solved, pieces_at):
    """The integrand of a profile gait on a dry or Newtonian law, with one
    balance solve per sign of the profile rate ``p'``.

    Such a law has no time scale: scaling every rate by ``k > 0`` scales the
    solution by ``k`` and keeps its structure, since every tolerance of the
    solver scales with the rates.  The rates of a breather or a
    constant-length crawler are ``p'`` times a field that runs from 0 to 1
    along the body, and the share of the body below each value of that field
    does not depend on the shape; so ``x1dot / p'`` and the structure key
    are the same wherever ``p'`` has one sign.  The first node with each
    sign is solved, and every other node takes ``c * p'`` under its key.
    The pieces are still built at every node, so that a custom profile that
    leaves its domain raises as before; a rate that is not finite is solved.
    """
    per_sign: dict[int, tuple[float, tuple[str, tuple[int, ...]]]] = {}

    def velocity(t: float) -> tuple[float, tuple[str, tuple[int, ...]]]:
        pieces, l_total = pieces_at(t)
        rate = pieces[0][3]  # p': the first piece runs from rate 0 to p'
        if not math.isfinite(rate):
            return solved(pieces, l_total)
        sign = (rate > 0.0) - (rate < 0.0)
        known = per_sign.get(sign)
        if known is None:
            x, key = solved(pieces, l_total)
            known = per_sign[sign] = (x / rate if sign else x, key)
        coef, key = known
        return (coef * rate if sign else coef), key

    return velocity


def _falling_root(a: float, b: float, c: float) -> float:
    """The root of ``a x^2 + b x + c`` where it falls, ``(-b - sqrt(b^2 - 4ac))
    / 2a`` in the form that does not cancel; ``-c/b`` for ``a = 0``.  Where
    ``b^2`` or ``4ac`` would leave the double range, the coefficients are
    first divided by a power of two that brings ``b`` or ``sqrt|ac|`` near
    1, which keeps the roots; elsewhere they are used as they are."""
    if a == 0.0 and b < 0.0:
        return -c / b
    bb, ac = b * b, 4.0 * a * c
    if not 2.0**-960 <= bb + abs(ac) <= 2.0**960:
        k = max(math.frexp(b)[1], (math.frexp(a)[1] + math.frexp(c)[1]) // 2)
        a, b, c = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k)
        bb, ac = b * b, 4.0 * a * c
    sq = math.sqrt(max(bb - ac, 0.0))
    return 2.0 * c / (sq - b) if b <= 0.0 else -(b + sq) / (2.0 * a)


def _constant_rate_stage(
    law: FrictionLaw, velocity, t0: float, t1: float, p0, p1
) -> float:
    """Integral of ``velocity`` over a stage of a constant-rate gait, with
    pieces ``p0`` at ``t0`` and ``p1`` at ``t1`` (see ``body._Stages``).

    The stage is cut into the stretches of the stage model that the
    midpoint grid shares, ``balance._AffineStage.stretches``, and each
    stretch of one structure takes one balance solve, at its middle, to fix
    that structure.  A stuck, plateau or tail velocity is constant.  A gap
    root, ``-c/b`` or the falling root of a quadratic, is integrated in
    closed form from the interpolated coefficients at the stretch ends
    (:func:`_sub_interval`), with no solve and no quadrature node.  A
    stretch whose solve disagrees with the model, or whose root leaves its
    gap at an end, and a stage the model cannot describe (a force scale
    at its floor), are integrated by ``adaptive_gauss`` over the solver, as
    for profile gaits.
    """
    model = _AffineStage(law, t0, t1, p0, p1)
    if model.conds is None:
        return analytic.adaptive_gauss(velocity, t0, t1, _CYCLE_TOL)
    total = 0.0
    for ta, tb, found in model.stretches():
        x = velocity(0.5 * (ta + tb))[0]
        try:
            part = _sub_interval(model, ta, tb, x, found)
        except ZeroDivisionError:
            part = None
        if part is None:
            part = analytic.adaptive_gauss(velocity, ta, tb, _CYCLE_TOL)
        total += part
    return total


def _sub_interval(
    model: _AffineStage, ta: float, tb: float, x: float, found: tuple[str, float] | None
) -> float | None:
    """Integral over ``[ta, tb]``, where the model's structure is ``found``,
    given the solved velocity ``x`` at the middle; None where the two
    disagree.  A constant is ``x`` times the width; a gap root is checked
    at both ends (inside its gap) and at the middle (against ``x``), then
    integrated by :func:`analytic._root_mean` from the coefficients at the
    ends."""
    if found is None:
        return None
    kind, value = found
    width = tb - ta
    if kind == "const":
        return x * width if x == value else None
    k = int(value)
    coefficients = model.gap(k)
    ends = coefficients(ta), coefficients(tb)
    xa, xb = _falling_root(*ends[0]), _falling_root(*ends[1])
    xm = _falling_root(*coefficients(0.5 * (ta + tb)))
    lo, hi = balance._widened(model.breaks[k], model.breaks[k + 1])
    if not (lo <= min(xa, xb) and max(xa, xb) <= hi):
        return None
    # relative to the roots themselves: the cycle's scale is theirs, not 1
    if not abs(xm - x) <= _CYCLE_TOL * max(abs(xa), abs(xb), abs(x)):
        return None
    return width * analytic._root_mean(xa, xb, *ends)


def _cycle(
    law: FrictionLaw, gait: GaitProgram, dt: float | None
) -> tuple[CycleReport, _Breakdown]:
    if dt is None:
        x, stage_sums, regime_counts, residual_max = _gauss_cycle(law, gait)
    else:
        from . import midpoint

        x, stage_sums, regime_counts, residual_max = midpoint.cycle(law, gait, dt)

    labels = _STAGE_LABELS.get(type(gait))
    if labels is None:
        labels = [f"stage_{k}" for k in range(len(stage_sums))]
    else:
        # one stage per corner interval of positive width, as both integrators cut
        corners = gait.corner_times()
        labels = [label for label, a, b in zip(labels, corners, corners[1:]) if b > a]
    contributions = tuple(zip(labels, stage_sums, strict=True))

    value, adm, note, breakdown = _analytic_cycle_value(law, gait)
    abs_res = abs(x - value) if value is not None else None
    rel_res = abs_res / max(1.0, abs(value)) if value is not None else None

    meta: dict[str, Any] = {"regime_counts": regime_counts, "residual_max": residual_max}
    if note:
        meta["note"] = note
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

    With ``dt=None`` the default stage-wise integrator runs: a few balance
    solves per stage on constant-rate gaits, whose every stretch is then
    integrated in closed form; on profile gaits, one per sign
    of the profile rate over dry and Newtonian laws, and over mixed laws 15
    per Gauss–Kronrod panel, or 31 for one extended before it is bisected;
    on every law each is solved on the gap between the node's two
    breakpoints where the forces there clear the solver's tolerance by its
    margin.  It raises
    :class:`DegenerateSubstrateError` where a stage integral does not
    settle; an explicit ``dt`` selects the midpoint grid that ``simulate``
    uses.
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
    (law, gait) pair, and ``ValueError`` unless ``tol`` is finite and
    positive.
    """
    _require_above(0.0, "tol", tol)
    report, breakdown = _cycle(law, gait, dt)
    if report.analytic_value is None:
        raise UnsupportedPairError(
            f"no closed-form reference for {type(gait).__name__} on this substrate"
            + (f" ({report.meta.get('note')})" if report.meta.get("note") else "")
        )
    checks = [_check("cycle_displacement", report.net_displacement, report.analytic_value, tol)]
    # Paired by label: a zero-width corner interval has no stage; its integral is 0.
    stages = dict(report.contributions)
    if isinstance(breakdown, analytic.SlidingDisplacement):
        targets = (breakdown.enter, breakdown.inside, breakdown.exit)
        for label, target in zip(_STAGE_LABELS[SquareWave], targets):
            checks.append(_check(f"stage:{label}", stages.get(label, 0.0), target, tol))
        checks.append(
            _check(
                "stage_identity_exit_minus_enter",
                breakdown.exit - breakdown.enter,
                gait.epsilon * gait.delta,
                1e-10,
            )
        )
    if isinstance(breakdown, analytic.StrideDisplacement):
        for label, target in zip(_STAGE_LABELS[CompositeStride], breakdown.edges):
            checks.append(_check(f"edge:{label}", stages.get(label, 0.0), target, tol))
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


def _axis_field(gait: GaitProgram, path: str) -> tuple[str, str]:
    """``("law" | "gait", constructor field)`` that the sweep axis ``path``
    sets: ``law.<field>``, or ``gait.<key>`` with a configuration key or
    the field it names.  Raises ``ValueError`` naming the path otherwise."""
    target, _, key = path.partition(".") if isinstance(path, str) else (None, "", "")
    owner = {"law": FrictionLaw, "gait": type(gait)}.get(target)
    if owner is None:
        raise ValueError(f"expected 'law.<field>' or 'gait.<field>', got {path!r}")
    name = _GAIT_KEYS.get(owner, {}).get(key, key)
    if name not in {f.name for f in fields(owner)}:
        raise ValueError(f"{path!r}: {owner.__name__} has no field {key!r}")
    return target, name


def sweep(
    law: FrictionLaw,
    gait: GaitProgram,
    axes: Sequence[tuple[str, Sequence[float]]],
    dt: float | None = None,
) -> list[SweepRow]:
    """Cartesian-product sweep over ``law.*`` / ``gait.*`` fields.

    Each axis is ``(path, values)`` with path like ``"gait.epsilon"`` or
    ``"law.tau_plus"``; an unknown path raises ``ValueError`` before any row
    runs.  Each row builds its law and its gait from all of its values at
    once, so a row does not depend on the order of the axes.  Rows are
    returned in grid order (last axis fastest); per-row failures are
    captured in the row, except :class:`StepLimitError`, which rejects
    ``dt`` for the whole sweep.  A ``dt`` that is not finite and positive,
    or an axis value too large for a float, raises ``ValueError`` before any
    row, too.
    """
    targets = [_axis_field(gait, path) for path, _ in axes]
    if dt is not None:
        _require_above(0.0, "dt", dt)
    grid = list(product(*(values for _, values in axes)))
    for point in grid:
        for (path, _), value in zip(axes, point):
            _isfinite(path, value)

    def run(idx: int, point: tuple[float, ...]) -> SweepRow:
        params = tuple((axes[k][0], float(v)) for k, v in enumerate(point))
        updates: dict[str, dict[str, float]] = {"law": {}, "gait": {}}
        for (target, name), value in zip(targets, point):
            updates[target][name] = value
        try:
            row_law = replace(law, **updates["law"])
            row_gait = replace(gait, **updates["gait"])
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
) -> list[tuple[float, float, float]]:
    """Best stick-slip displacement per cycle over body length on dry
    substrates, tabulated over wave amplitude for one curve per asymmetry
    ratio.  The ratio does not depend on the length, so it is evaluated
    at L = 1."""
    if alphas is None:
        alphas = (0.25, 0.5, 0.75)
    if epsilons is None:
        epsilons = _FIG_DEFAULT_EPSILONS
    for a in alphas:
        if not (_isfinite("alpha", a) and 0.0 < a < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {a!r}")
    rows = []
    for a in alphas:
        for e in epsilons:
            value = 0.0 if e == 0.0 else analytic.stickslip_max_displacement_dry(a, e, 1.0)
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
    if not (_isfinite("delta_over_length", delta_over_length) and 0.0 < delta_over_length < 1.0):
        raise ValueError("delta_over_length must lie in (0, 1)")
    rows = []
    for b in betas:
        if not (_isfinite("beta", b) and b > 0.0 and math.isfinite(float(b) * b)):
            raise ValueError(f"beta must be positive with a finite square, got {b!r}")
        for e in epsilons:
            value = analytic.newtonian_sliding_displacement(b, e, delta_over_length, 1.0)
            rows.append((float(b), float(b) ** 2, float(e), value))
    return rows
