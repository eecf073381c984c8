"""Closed-form velocities and per-cycle displacements for the standard gaits.

These are the fast path of the package and double as independent references
for the numerical force-balance solver.  All results come from solving the
quasi-static balance analytically for each gait family:

* breathers (affinely deforming one-segment bodies),
* constant-length two-segment bodies (which reduce to breathers),
* composite strides (rectangles in segment-length space),
* square traveling waves, in the stick-slip and in the sliding regime.

Formulas are implemented in the orientation-free form built on
:func:`dircrawl.friction.directional_pair`, so any parameter asymmetry is
accepted without flipping the axis.  Contraction-wave results are produced
from the extension-wave expressions by the mechanical substitution that
swaps the roles of the two sliding directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import MixedRheologyError, RegimeMismatchError
from .friction import FrictionLaw, alpha, directional_pair

__all__ = [
    "BreatherRoots",
    "StrideDisplacement",
    "WaveAdmissibility",
    "SlidingDisplacement",
    "breather_roots",
    "breather_velocity",
    "breather_cycle_displacement",
    "constant_length_velocity",
    "composite_stride_displacement",
    "negative_displacement_feasible",
    "wave_admissibility",
    "stickslip_delta_max",
    "sliding_delta_max",
    "stickslip_displacement",
    "stickslip_max_displacement_dry",
    "sliding_stage_velocity",
    "sliding_cycle_displacement",
    "newtonian_sliding_displacement",
]

# Viscosity contrast below this (relative) routes the breather balance to the
# linear branch; the quadratic root expression cancels catastrophically there.
_MU_BRANCH_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Breathers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreatherRoots:
    """Both roots of the quadratic breather balance, as velocity ratios
    ``C = x1dot / ldot``, plus the discriminant and which root is admissible
    (the one in ``(-1, 0)``, always the "minus" root)."""

    c_minus: float
    c_plus: float
    discriminant: float
    admissible: str  # "minus" or "plus"


def breather_roots(law: FrictionLaw, ldot: float) -> BreatherRoots:
    """Roots of the breather force balance for distinct viscosities."""
    if ldot == 0.0:
        raise ValueError("ldot must be nonzero")
    p = directional_pair(law, elongating=ldot > 0.0)
    if abs(p.mu_1 - p.mu_2) <= _MU_BRANCH_RTOL * max(p.mu_1, p.mu_2, 1.0):
        raise ValueError("viscosities coincide; the balance is linear, not quadratic")
    disc = (
        p.mu_1 * p.mu_2
        + ((p.tau_2 - p.tau_1) / ldot) ** 2
        + 2.0 * (p.mu_2 * p.tau_1 - p.mu_1 * p.tau_2) / ldot
    )
    if disc < 0.0:
        raise ValueError(f"negative discriminant {disc}: invalid friction law")
    sq = math.sqrt(disc)
    base = p.mu_2 + (p.tau_1 - p.tau_2) / ldot
    c_minus = (base - sq) / (p.mu_1 - p.mu_2)
    c_plus = (base + sq) / (p.mu_1 - p.mu_2)
    admissible = "minus" if -1.0 <= c_minus <= 0.0 else "plus"
    return BreatherRoots(c_minus, c_plus, disc, admissible)


def breather_velocity(law: FrictionLaw, ldot: float) -> float:
    """Left-end velocity of a breather elongating/contracting at rate ``ldot``.

    The two body halves separated by the interior rest point slide in
    opposite directions; balancing their friction gives a velocity ratio
    ``x1dot / ldot`` in ``[-1, 0]`` that does not depend on the current
    length, only on the rate (and is invariant under scaling the law).

    The admissible root of the balance is evaluated in rationalized form,

        C = (2 tau_2 / ldot - mu_2) / (mu_2 + w + sqrt(disc)),
        w = (tau_1 - tau_2) / ldot  >=  0,

    which is free of cancellation for every valid law, covers the
    equal-viscosity (linear) case, and stays accurate as ldot -> 0 where the
    raw root expressions degrade.  For substrates that are frictionless in
    one direction the solution set of the balance is a half-line; the root
    then sits at a boundary of [-1, 0] and matches the closest-to-zero rule
    of :func:`dircrawl.balance.solve_velocity`.
    """
    if ldot == 0.0:
        raise ValueError("ldot must be nonzero; a static body is the solver's job")
    p = directional_pair(law, elongating=ldot > 0.0)
    tau_gap = p.tau_1 - p.tau_2
    if tau_gap != 0.0 and abs(ldot) < abs(tau_gap) * 1e-100:
        return (p.tau_2 / tau_gap) * ldot  # yield-dominated limit, before w overflows
    w = tau_gap / ldot
    disc = (
        p.mu_1 * p.mu_2
        + w * w
        + 2.0 * (p.mu_2 * p.tau_1 - p.mu_1 * p.tau_2) / ldot
    )
    num = 2.0 * p.tau_2 / ldot - p.mu_2
    den = p.mu_2 + w + math.sqrt(max(disc, 0.0))
    if den == 0.0:
        return 0.0  # nothing resists ahead of the motion; rest is admissible
    c = num / den
    return min(max(c, -1.0), 0.0) * ldot


def _rate_independent_coefficients(law: FrictionLaw) -> tuple[float, float] | None:
    """(c_up, c_down) with x1dot = c * ldot, when independent of |ldot|."""
    if law.is_dry or law.is_newtonian:
        return breather_velocity(law, 1.0), -breather_velocity(law, -1.0)
    return None


# 8-point Gauss–Legendre nodes on [-1, 1] with their weights, equal to
# numpy.polynomial.legendre.leggauss(8).  Literals, because importing
# numpy.polynomial costs more resident memory than the whole rule saves.
_GL8 = (
    (-0.9602898564975362, 0.10122853629037706),
    (-0.7966664774136267, 0.22238103445337443),
    (-0.525532409916329, 0.3137066458778869),
    (-0.18343464249564978, 0.36268378337836166),
    (0.18343464249564978, 0.36268378337836166),
    (0.525532409916329, 0.3137066458778869),
    (0.7966664774136267, 0.22238103445337443),
    (0.9602898564975362, 0.10122853629037706),
)

_Sample = tuple[float, float, Hashable]  # (t, value, key)


def _gauss8(
    f: Callable[[float], tuple[float, Hashable]], a: float, b: float
) -> tuple[float, list[_Sample]]:
    """The 8-point rule over [a, b] and the samples it took."""
    half = 0.5 * (b - a)
    mid = a + half
    total = 0.0
    samples = []
    for x, w in _GL8:
        t = mid + half * x
        value, key = f(t)
        total += w * value
        samples.append((t, value, key))
    return half * total, samples


def _key_switch(
    f: Callable[[float], tuple[float, Hashable]], samples: list[_Sample], tol: float
) -> float | None:
    """Time where the key changes between the first two neighbouring samples
    whose keys differ, or None when all keys agree.

    The switch is bracketed by bisection until placing the cut anywhere in
    the bracket moves the integral by at most ``tol``.
    """
    for (t0, v0, k0), (t1, v1, k1) in zip(samples, samples[1:]):
        if k0 != k1:
            break
    else:
        return None
    while abs(v1 - v0) * (t1 - t0) > tol:
        tm = 0.5 * (t0 + t1)
        if not t0 < tm < t1:
            break
        vm, km = f(tm)
        if km == k0:
            t0, v0 = tm, vm
        else:
            t1, v1 = tm, vm
    return 0.5 * (t0 + t1)


def adaptive_gauss(
    f: Callable[[float], tuple[float, Hashable]],
    a: float,
    b: float,
    tol: float,
    depth: int = 30,
) -> float:
    """Integral over ``[a, b]`` of ``value`` where ``f(t) = (value, key)``.

    This is the package's one quadrature routine.  ``key`` tags the
    structure the integrand was computed under (``None`` when there is
    none).  Wherever two neighbouring samples differ in key, the interval
    is cut at the switch, located by bisection, and each side is integrated
    on its own: an integrand that jumps or kinks between nodes can
    otherwise fool the error estimate.  Each piece compares the 8-point
    Gauss–Legendre rule against the same rule on its two halves and
    subdivides until they agree within ``tol * max(1, |integral|)``.
    """
    whole, samples = _gauss8(f, a, b)
    return _gauss_refine(f, a, b, whole, samples, tol, depth)


def _gauss_refine(f, a, b, whole, samples, tol, depth):
    cut = _key_switch(f, samples, tol)
    if cut is None:
        m = 0.5 * (a + b)
        left, left_samples = _gauss8(f, a, m)
        right, right_samples = _gauss8(f, m, b)
        merged = sorted(samples + left_samples + right_samples, key=lambda s: s[0])
        cut = _key_switch(f, merged, tol)
        if cut is None:
            estimate = left + right
            if depth <= 0 or abs(estimate - whole) <= tol * max(1.0, abs(estimate)):
                return estimate
            return _gauss_refine(
                f, a, m, left, left_samples, 0.5 * tol, depth - 1
            ) + _gauss_refine(f, m, b, right, right_samples, 0.5 * tol, depth - 1)
    if depth <= 0:
        return whole
    return adaptive_gauss(f, a, cut, 0.5 * tol, depth - 1) + adaptive_gauss(
        f, cut, b, 0.5 * tol, depth - 1
    )


def _corner_spans(corners: Sequence[float], period: float) -> list[tuple[float, float]]:
    """Intervals of ``[0, period]`` between consecutive ``corners``, clamped into it."""
    pts = sorted({min(max(c, 0.0), period) for c in corners} | {0.0, period})
    return list(zip(pts, pts[1:]))


def _monotone_pieces(
    rate: Callable[[float], float], period: float, corners: Sequence[float] | None
) -> list[tuple[float, float]]:
    """Time intervals on which the length profile is monotone."""
    if corners is not None:
        return _corner_spans(corners, period)
    n = 2048
    ts = [period * i / n for i in range(n + 1)]
    vals = [rate(t) for t in ts]
    splits = []
    for i in range(n):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] >= 0.0:
            continue
        lo, hi = ts[i], ts[i + 1]
        flo = vals[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = rate(mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        splits.append(0.5 * (lo + hi))
    return _corner_spans(splits, period)


def breather_cycle_displacement(
    law: FrictionLaw,
    profile: Callable[[float], float],
    profile_rate: Callable[[float], float],
    period: float,
    *,
    corners: Sequence[float] | None = None,
    tol: float = 1e-10,
) -> float:
    """Net left-end displacement of a breather over one period of ``profile``.

    For dry and Newtonian substrates the velocity is linear in the rate, so
    each monotone piece contributes ``coefficient * (length change)`` exactly
    and the result is independent of how fast the path is traced.  General
    laws are integrated with :func:`adaptive_gauss` split at the rate's
    sign changes.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    l0, l1 = profile(0.0), profile(period)
    if abs(l1 - l0) > 1e-9 * max(1.0, abs(l0)):
        raise ValueError(f"profile is not periodic: l(0)={l0}, l(T)={l1}")

    pieces = _monotone_pieces(profile_rate, period, corners)
    coeffs = _rate_independent_coefficients(law)
    total = 0.0
    for t0, t1 in pieces:
        dl = profile(t1) - profile(t0)
        if coeffs is not None:
            c_up, c_down = coeffs
            total += (c_up if dl > 0.0 else c_down) * dl if dl != 0.0 else 0.0
        else:

            def integrand(t: float) -> tuple[float, None]:
                ldot = profile_rate(t)
                return (breather_velocity(law, ldot) if ldot != 0.0 else 0.0), None

            total += adaptive_gauss(integrand, t0, t1, tol)
    return total


def constant_length_velocity(law: FrictionLaw, seg1_length: float, seg1_rate: float) -> float:
    """Left-end velocity of a constant-total-length two-segment crawler.

    The balance decouples into two independent one-segment balances, so the
    result equals :func:`breather_velocity` of the first segment's rate and
    is independent of the current segment length.
    """
    if seg1_length <= 0.0:
        raise ValueError("seg1_length must be positive")
    return breather_velocity(law, seg1_rate)


# ---------------------------------------------------------------------------
# Composite strides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrideDisplacement:
    """Per-cycle displacement of a composite stride with its four edge
    contributions (first-segment contraction, whole-body scale-up,
    first-segment extension, whole-body scale-down)."""

    total: float
    seg1_contract: float
    scale_up: float
    seg1_extend: float
    scale_down: float

    @property
    def edges(self) -> tuple[float, float, float, float]:
        return (self.seg1_contract, self.scale_up, self.seg1_extend, self.scale_down)


def composite_stride_displacement(
    law: FrictionLaw, lam: float, delta: float, h: float
) -> StrideDisplacement:
    """Closed-form stride displacement for rate-independent substrates.

    Only pure dry or pure Newtonian laws are supported here; anything mixed
    is rate-dependent and must be simulated (``engine.simulate``).
    """
    if lam <= 0.0 or delta <= 0.0 or h <= 1.0:
        raise ValueError("stride requires lam > 0, delta > 0, h > 1")
    coeffs = _rate_independent_coefficients(law)
    if coeffs is None:
        raise MixedRheologyError(
            "stride closed forms cover only pure dry or pure Newtonian "
            "substrates; simulate the gait with engine.simulate instead"
        )
    c_up, c_down = coeffs
    grow = (h - 1.0) * (2.0 * lam + delta)
    seg1_contract = c_down * (-delta)
    scale_up = c_up * grow
    seg1_extend = c_up * h * delta
    scale_down = c_down * (-grow)

    if law.is_dry:
        a = alpha(law)
        total = (
            a * (4.0 * lam * (h - 1.0) + delta * (3.0 * h - 1.0))
            - 2.0 * lam * (h - 1.0)
            - delta * (2.0 * h - 1.0)
        )
    else:
        b2 = law.mu_minus / law.mu_plus if law.mu_plus > 0.0 else math.inf
        if not math.isfinite(b2):
            raise MixedRheologyError(
                "Newtonian stride closed form needs mu_plus > 0; simulate instead"
            )
        b = math.sqrt(b2)
        total = (
            b / (b + 1.0) * (2.0 * lam * (h - 1.0) + delta * h)
            - 1.0 / (b + 1.0) * (2.0 * lam * (h - 1.0) + delta * (2.0 * h - 1.0))
        )
    return StrideDisplacement(total, seg1_contract, scale_up, seg1_extend, scale_down)


def negative_displacement_feasible(
    law: FrictionLaw, lam: float, delta: float, h: float
) -> bool:
    """Whether the stride advances against the direction of least resistance.

    Dry case: ``2*alpha - 1 < 1 / (4*lam/delta + (3h-1)/(h-1))``; Newtonian:
    ``beta - 1 < 1 / (2*lam/delta + h/(h-1))``.  Both bounds are below the
    values reached at ``alpha = 2/3`` and ``beta = 2`` respectively, however
    extreme the stride geometry.
    """
    if lam <= 0.0 or delta <= 0.0 or h <= 1.0:
        raise ValueError("stride requires lam > 0, delta > 0, h > 1")
    if law.is_dry:
        bound = 1.0 / (4.0 * lam / delta + (3.0 * h - 1.0) / (h - 1.0))
        return 2.0 * alpha(law) - 1.0 < bound
    if law.is_newtonian:
        if law.mu_plus == 0.0:
            return False
        b = math.sqrt(law.mu_minus / law.mu_plus)
        bound = 1.0 / (2.0 * lam / delta + h / (h - 1.0))
        return b - 1.0 < bound
    raise MixedRheologyError(
        "feasibility bound covers only pure dry or pure Newtonian substrates"
    )


# ---------------------------------------------------------------------------
# Square traveling waves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveAdmissibility:
    """Which locomotion mode (if any) a square wave of the given width can
    drive on the given substrate.

    ``stickslip_delta_max`` / ``sliding_delta_max`` are the width bounds of
    the two modes (zero when the mode is impossible for this law and wave
    direction); the two modes are mutually exclusive because stick-slip
    requires a nonzero yield ahead of the wave while sliding requires it to
    vanish.
    """

    regime: str  # "stick_slip" | "sliding" | "infeasible"
    delta_max: float
    violated_condition: str | None
    stickslip_delta_max: float
    sliding_delta_max: float


def _wave_params(law: FrictionLaw, epsilon: float) -> tuple[float, float, float, float]:
    """(tau_back, mu_back, tau_front, mu_front): parameters resisting the
    deforming region (back) and the rest of the body (front), for the given
    wave sign.  Contraction waves swap the sliding directions, which is the
    mechanical substitution generating their formulas; ``tau_back`` carries
    the sign the yield force takes in the extension-wave expressions."""
    if epsilon > 0.0:
        return law.tau_minus, law.mu_minus, law.tau_plus, law.mu_plus
    return -law.tau_plus, law.mu_plus, -law.tau_minus, law.mu_minus


def _check_wave_args(epsilon: float, c: float, delta: float, L: float) -> None:
    if epsilon <= -1.0 or epsilon == 0.0:
        raise ValueError("epsilon must be > -1 and nonzero")
    if c <= 0.0:
        raise ValueError("wave speed must be positive")
    if not 0.0 < delta < L:
        raise ValueError("wave width must satisfy 0 < delta < L")


def stickslip_delta_max(law: FrictionLaw, epsilon: float, c: float, L: float) -> float:
    """Largest wave width for which the undeformed part of the body can stick."""
    if epsilon > 0.0:
        tau_hold = law.tau_plus
        drive = (law.tau_minus + law.mu_minus * epsilon * c) * (1.0 + epsilon)
    else:
        tau_hold = law.tau_minus
        drive = (law.tau_plus - law.mu_plus * epsilon * c) * (1.0 + epsilon)
    if tau_hold == 0.0:
        return 0.0
    return tau_hold * L / (drive + tau_hold)


def sliding_delta_max(law: FrictionLaw, epsilon: float, c: float, L: float) -> float:
    """Supremum of wave widths admitting whole-body sliding (not attained)."""
    tb, _, tf, mf = _wave_params(law, epsilon)
    if tf != 0.0 or mf == 0.0:
        return 0.0
    drive = mf * epsilon * c
    return drive * L / (drive + tb * (1.0 + epsilon))


def wave_admissibility(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float
) -> WaveAdmissibility:
    """Classify a square-wave configuration per the width/rheology bounds."""
    _check_wave_args(epsilon, c, delta, L)
    ss_max = stickslip_delta_max(law, epsilon, c, L)
    sl_max = sliding_delta_max(law, epsilon, c, L)
    tau_hold = law.tau_plus if epsilon > 0.0 else law.tau_minus
    mu_front = law.mu_plus if epsilon > 0.0 else law.mu_minus
    if tau_hold != 0.0:
        if delta <= ss_max:
            return WaveAdmissibility("stick_slip", ss_max, None, ss_max, sl_max)
        return WaveAdmissibility(
            "infeasible", ss_max, "delta exceeds the stick-slip width bound", ss_max, sl_max
        )
    if mu_front != 0.0:
        if delta < sl_max:
            return WaveAdmissibility("sliding", sl_max, None, ss_max, sl_max)
        return WaveAdmissibility(
            "infeasible", sl_max, "delta reaches the sliding width bound", ss_max, sl_max
        )
    tag = "tau_plus=mu_plus=0" if epsilon > 0.0 else "tau_minus=mu_minus=0"
    return WaveAdmissibility(
        "infeasible", 0.0, f"no resistance ahead of the wave ({tag})", ss_max, sl_max
    )


def stickslip_displacement(epsilon: float, delta: float) -> float:
    """Per-cycle displacement of a stick-slip wave: ``-epsilon * delta``.

    Negative for extension waves (the body recoils against the wave) and
    positive for contraction waves.  Admissibility is not checked here.
    """
    return -epsilon * delta


def stickslip_max_displacement_dry(alpha_value: float, epsilon: float, L: float) -> float:
    """Best per-cycle stick-slip displacement on a dry substrate, i.e. at the
    largest admissible wave width for the given amplitude."""
    if not 0.0 < alpha_value < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if epsilon <= -1.0:
        raise ValueError("epsilon must exceed -1")
    if epsilon >= 0.0:
        return -epsilon * (1.0 - alpha_value) * L / (1.0 + epsilon * alpha_value)
    return -epsilon * alpha_value * L / (1.0 + epsilon * (1.0 - alpha_value))


def _require_sliding(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float
) -> None:
    adm = wave_admissibility(law, epsilon, c, delta, L)
    if adm.regime != "sliding":
        raise RegimeMismatchError(
            f"configuration is not in the sliding regime ({adm.regime}"
            + (f": {adm.violated_condition}" if adm.violated_condition else "")
            + ")"
        )


def sliding_stage_velocity(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float, t: float
) -> float:
    """Left-end velocity of a sliding crawler at time ``t`` within one period.

    The period splits into the wave entering at the left end, traveling
    fully inside, and leaving at the right end; on each stage the balance of
    the two sliding regions gives a rational expression in ``t``.
    """
    _require_sliding(law, epsilon, c, delta, L)
    tb, mb, tf, mf = _wave_params(law, epsilon)
    T = (L + delta) / c
    if not 0.0 <= t < T:
        raise ValueError(f"t={t} outside one period [0, {T})")
    e = epsilon
    ct = c * t
    if t < delta / c:
        num = tb * (1.0 + e) * ct - (tf + mf * e * c) * (L - ct)
        den = mb * (1.0 + e) * ct + mf * (L - ct)
    elif t < L / c:
        num = (tb + mb * e * c) * (1.0 + e) * delta - tf * (L - delta)
        den = mb * (1.0 + e) * delta + mf * (L - delta)
    else:
        num = (tb + mb * e * c) * (1.0 + e) * (L - ct + delta) - tf * (ct - delta)
        den = mb * (1.0 + e) * (L - ct + delta) + mf * (ct - delta)
    return num / den


@dataclass(frozen=True)
class SlidingDisplacement:
    """Per-cycle displacement of a sliding wave split by stage (wave
    entering, fully inside, exiting)."""

    total: float
    enter: float
    inside: float
    exit: float


def _u_minus_log1p_over_u2(u: float) -> float:
    """(u - log(1+u)) / u^2, stable for all u > -1 including u -> 0."""
    if abs(u) < 1e-4:
        # alternating series 1/2 - u/3 + u^2/4 - ...
        total, term, k = 0.5, 1.0, 1
        while True:
            term *= -u
            k += 1
            inc = term / (k + 1.0)
            total += inc
            if abs(inc) < 1e-18:
                return total
    return (u - math.log1p(u)) / (u * u)


def sliding_cycle_displacement(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float
) -> SlidingDisplacement:
    """Stage-resolved per-cycle displacement of a sliding crawler.

    Evaluated in a form that is uniformly stable across the parameter locus
    where the viscosity of the stretched region matches the rest of the body
    (where the textbook log expression degenerates); the exit contribution
    always exceeds the entry one by exactly ``epsilon * delta``.
    """
    _require_sliding(law, epsilon, c, delta, L)
    tb, mb, tf, mf = _wave_params(law, epsilon)
    e = epsilon
    d = (1.0 + e) * mb - mf
    u = delta * d / (L * mf)
    p = (1.0 + e) * (tb + mb * e * c) / c
    s = _u_minus_log1p_over_u2(u)
    exit_ = p * delta * delta / (L * mf) * s
    enter = exit_ - e * delta
    inside = delta * (L - delta) * p / (L * mf + delta * d)
    return SlidingDisplacement(enter + inside + exit_, enter, inside, exit_)


def newtonian_sliding_displacement(
    beta_value: float, epsilon: float, delta: float, L: float
) -> float:
    """Per-cycle sliding displacement on a purely Newtonian substrate.

    Independent of the wave speed; extension and contraction waves are both
    admissible for any width below the body length.  ``beta_value`` is the
    viscous asymmetry ratio sqrt(mu_minus / mu_plus).
    """
    if beta_value <= 0.0:
        raise ValueError("beta must be positive")
    if epsilon == 0.0:
        return 0.0
    law = FrictionLaw(0.0, 0.0, beta_value * beta_value, 1.0)
    return sliding_cycle_displacement(law, epsilon, 1.0, delta, L).total
