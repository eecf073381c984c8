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

import cmath
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Hashable, Sequence

from .errors import DegenerateSubstrateError, MixedRheologyError, RegimeMismatchError
from .errors import _isfinite, _require_above
from .friction import DirectionalPair, FrictionLaw, alpha, directional_pair

__all__ = [
    "BreatherRoots",
    "StrideDisplacement",
    "WaveAdmissibility",
    "SlidingDisplacement",
    "breather_roots",
    "breather_velocity",
    "breather_cycle_displacement",
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


def _require_in_range(
    values: tuple[float, ...], law: FrictionLaw | None, *inputs: tuple[str, float]
) -> None:
    """Raise ``ValueError`` when a closed form left the float range (a
    non-finite value among ``values``), naming the inputs that took it there:
    of the ``(name, value)`` ``inputs`` and the coefficients of ``law``, those
    whose binary exponent is at least half the largest in magnitude."""
    if not all(map(math.isfinite, values)):
        if law is not None:
            inputs += tuple((f"law.{f.name}", getattr(law, f.name)) for f in fields(law))
        far = max(abs(math.frexp(v)[1]) for _, v in inputs)
        named = [f"{n}={v!r}" for n, v in inputs if 2 * abs(math.frexp(v)[1]) >= far]
        verb = "is" if len(named) == 1 else "are"
        raise ValueError(f"{', '.join(named)} {verb} out of range: the closed form overflows")


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
    if not _isfinite("ldot", ldot) or ldot == 0.0:
        raise ValueError(f"ldot must be finite and nonzero, got {ldot!r}")
    p = directional_pair(law, elongating=ldot > 0.0)
    if abs(p.mu_1 - p.mu_2) <= _MU_BRANCH_RTOL * max(p.mu_1, p.mu_2, 1.0):
        raise ValueError("viscosities coincide; the balance is linear, not quadratic")
    # Every term is >= 0, so the discriminant is never negative: tau_1 >= 0
    # >= tau_2 while elongating and tau_1 <= 0 <= tau_2 while contracting, so
    # (mu_2 * tau_1 - mu_1 * tau_2) / ldot >= 0 in both directions.
    try:
        disc = (
            p.mu_1 * p.mu_2
            + ((p.tau_2 - p.tau_1) / ldot) ** 2
            + 2.0 * (p.mu_2 * p.tau_1 - p.mu_1 * p.tau_2) / ldot
        )
    except OverflowError:
        disc = math.inf
    _require_in_range((disc,), None, ("ldot", ldot))
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

    It is evaluated once, at :func:`_unit_scale`: no term overflows, one that
    underflows is negligible, and while values stay normal scaling the law
    by ``2**k`` is exact, as is scaling the yields and ``ldot`` by ``2**k``.
    """
    if not _isfinite("ldot", ldot) or ldot == 0.0:
        raise ValueError(f"ldot must be finite and nonzero (rest is for the solver), got {ldot!r}")
    return _paired_velocity(directional_pair(law, elongating=ldot > 0.0), ldot)


def _paired_velocity(p: DirectionalPair, ldot: float) -> float:
    """:func:`breather_velocity` at a finite nonzero ``ldot``, from the
    law's :func:`directional_pair` for the sign of ``ldot``."""
    tau_1, tau_2, mu_1, mu_2, l, _, _ = _unit_scale(p.tau_1, p.tau_2, p.mu_1, p.mu_2, ldot)
    w = (tau_1 - tau_2) / l
    disc = mu_1 * mu_2 + w * w + 2.0 * (mu_2 * tau_1 - mu_1 * tau_2) / l
    den = mu_2 + w + math.sqrt(disc)
    if den == 0.0:
        return 0.0  # nothing resists ahead of the motion; rest is admissible
    return min(max((2.0 * tau_2 / l - mu_2) / den, -1.0), 0.0) * ldot


def _unit_scale(
    tau_1: float, tau_2: float, mu_1: float, mu_2: float, rate: float, top: int = 0
) -> tuple[float, float, float, float, float, int, int]:
    """``(tau_1, tau_2, mu_1, mu_2, r, n, e)`` rescaled by exact powers of
    two: ``rate = r * 2**n``, ``r`` its ``frexp`` mantissa, and the largest
    nonzero of ``tau_1 / rate, tau_2 / rate, mu_1, mu_2`` brought near
    ``2**top`` by dividing the viscosities by ``2**e`` and the yields by
    ``2**(n + e)``, so a ratio homogeneous of degree 0 in these four keeps its
    value with ``r``."""
    r, n = math.frexp(rate)
    tau, mu = max(abs(tau_1), abs(tau_2)), max(mu_1, mu_2)
    e = max(math.frexp(tau)[1] - n if tau else -math.inf, math.frexp(mu)[1] if mu else -math.inf)
    e -= top
    tau_1, tau_2 = math.ldexp(tau_1, -n - e), math.ldexp(tau_2, -n - e)
    return tau_1, tau_2, math.ldexp(mu_1, -e), math.ldexp(mu_2, -e), r, n, e


def _rate_independent_coefficients(law: FrictionLaw) -> tuple[float, float] | None:
    """(c_up, c_down) with x1dot = c * ldot, when independent of |ldot|."""
    if law.is_dry or law.is_newtonian:
        return breather_velocity(law, 1.0), -breather_velocity(law, -1.0)
    return None


# Gauss–Kronrod 7–15 rule on [-1, 1] (QUADPACK dqk15; Piessens et al. 1983),
# nodes ascending: (node, Kronrod weight, Gauss weight).  The 7-point
# Gauss–Legendre rule is nested in it, with weight 0 at the Kronrod-only
# nodes.  Literals, because importing numpy.polynomial costs more resident
# memory than the whole rule saves.
_QK15 = (
    (-0.9914553711208126, 0.022935322010529224, 0.0),
    (-0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (-0.8648644233597691, 0.10479001032225019, 0.0),
    (-0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (-0.5860872354676911, 0.1690047266392679, 0.0),
    (-0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (-0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.9914553711208126, 0.022935322010529224, 0.0),
)

# Kronrod–Patterson extension of that rule to 31 nodes on [-1, 1] (Patterson
# 1968, Math. Comp. 22:847–856), nodes ascending: (node, weight).  The nodes
# at odd indices are _QK15's; the 16 others are the roots of the monic even
# polynomial of degree 16 orthogonal to every lower power against the weight
# prod(x - x_k) over _QK15's nodes, so the rule is exact to degree 46.
# Generated offline: that polynomial (and the Stieltjes factor of _QK15's
# node polynomial) from exact rational moments with `fractions`, its roots
# with mpmath.polyroots at 60 digits, the weights from the interpolatory
# conditions on Legendre polynomials at the same precision, rounded once.
_QP31 = (
    (-0.9986871096784667, 0.003634931195049884),
    (-0.9914553711208126, 0.011319468444683435),
    (-0.9753835882088934, 0.021039446258726797),
    (-0.9491079123427585, 0.03157770621704586),
    (-0.9122048827832628, 0.042193500584546594),
    (-0.8648644233597691, 0.05238437082098269),
    (-0.8076889391724376, 0.061821985645449856),
    (-0.7415311855993945, 0.07033204641040065),
    (-0.6673480981043002, 0.07787534711524599),
    (-0.5860872354676911, 0.08449876530124302),
    (-0.498636786552832, 0.0902618021465586),
    (-0.4058451513773972, 0.09517802993183068),
    (-0.3085792479105878, 0.09919685766743291),
    (-0.20778495500789848, 0.10221418000570275),
    (-0.10452827381078071, 0.10409995547269736),
    (0.0, 0.10474321356480584),
    (0.10452827381078071, 0.10409995547269736),
    (0.20778495500789848, 0.10221418000570275),
    (0.3085792479105878, 0.09919685766743291),
    (0.4058451513773972, 0.09517802993183068),
    (0.498636786552832, 0.0902618021465586),
    (0.5860872354676911, 0.08449876530124302),
    (0.6673480981043002, 0.07787534711524599),
    (0.7415311855993945, 0.07033204641040065),
    (0.8076889391724376, 0.061821985645449856),
    (0.8648644233597691, 0.05238437082098269),
    (0.9122048827832628, 0.042193500584546594),
    (0.9491079123427585, 0.03157770621704586),
    (0.9753835882088934, 0.021039446258726797),
    (0.9914553711208126, 0.011319468444683435),
    (0.9986871096784667, 0.003634931195049884),
)

_Sample = tuple[float, float, Hashable]  # (t, value, key)

# dqk15's roundoff floor on a panel's error, relative to the integral of |f|.
_ROUNDOFF = 50.0 * sys.float_info.epsilon
# Most panels one adaptive_gauss call takes, an extended panel counting
# once: a call evaluates its integrand up to 31 times per panel, not 15, so
# a mixed-law breather stage that never settles reaches the cap after 31,000
# solves in ~0.24 s, where 15-node panels took ~0.12 s.  On the benchmark's
# inputs (seeds 1-40 and 101-140 of the cycles and trajectory rotations) the
# calls are the profile gaits' stages, and a call takes at most 3 panels.
_MAX_PANELS = 1000
# Most cuts from a call's interval down to one panel, which bounds the
# recursion; a call on those inputs cuts at most once.
_MAX_DEPTH = 30


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


def _settled(
    value: float, err: float, resasc: float, resabs: float, tol: float, call_bound: float
) -> bool:
    """Whether a panel's ``value`` is accepted: QUADPACK's error estimate
    from the raw difference ``err`` of two rules, scaled down where it is
    small against the spread ``resasc`` of the integrand about its mean, is
    within ``tol * max(1, |value|)``.  Where that bound is below the roundoff
    floor, ``_ROUNDOFF`` times the integral ``resabs`` of ``|value|``, a
    halved tolerance asks for more than the arithmetic resolves; the
    estimate is then held to the floor or to the whole call's bound
    ``call_bound``, whichever is looser.  A panel whose error is above both,
    as next to an integrable singularity, is not accepted."""
    if err != 0.0 and resasc != 0.0:
        err = resasc * min(1.0, 200.0 * err / resasc) ** 1.5
    bound = tol * max(1.0, abs(value))
    floor = _ROUNDOFF * resabs
    if bound < floor:
        bound = max(floor, call_bound)
    return err <= bound


def adaptive_gauss(
    f: Callable[[float], tuple[float, Hashable]],
    a: float,
    b: float,
    tol: float,
) -> float:
    """Integral over ``[a, b]`` of ``value`` where ``f(t) = (value, key)``.

    This is the package's one quadrature routine.  ``key`` tags the
    structure the integrand was computed under (``None`` when there is
    none).  Each panel takes the 15 nodes of the Gauss–Kronrod 7–15 rule.
    Wherever two neighbouring samples differ in key, the panel is cut at
    the switch, located by bisection, and each side is integrated on its
    own: an integrand that jumps or kinks between nodes can otherwise fool
    the error estimate.  Otherwise the Kronrod value is accepted when
    QUADPACK's error estimate is within ``tol * max(1, |integral|)``.  Once
    that bound, halved at each cut, is below the roundoff floor, ``50 * eps``
    times the integral of ``|value|`` over the panel, the estimate is held
    instead to the floor, where rounding noise hides the error, or to the
    whole call's bound, taken from its first panel, whichever is looser.
    A panel with no key switch whose Kronrod value fails that bound takes
    the 16 further nodes of Patterson's 31-point extension, reusing its 15
    values, as QUADPACK's ``dqng`` extends a rule: it is cut at a key
    switch among the 31 samples, else its 31-point value is accepted under
    the same bound, the error estimated from its difference to the Kronrod
    value, else it is bisected and its halves start again at 15 nodes.
    Raises :class:`DegenerateSubstrateError` when one call takes
    more than ``_MAX_PANELS`` panels, or a panel more than ``_MAX_DEPTH``
    cuts deep: the integral does not settle.
    """
    return _panel(f, [0, 0.0], a, b, tol, 0)


def _panel(
    f: Callable[[float], tuple[float, Hashable]],
    state: list,
    a: float,
    b: float,
    tol: float,
    depth: int,
) -> float:
    """One panel of :func:`adaptive_gauss` over ``[a, b]``, ``depth`` cuts
    below the call's interval, with its halves where it is cut.  ``state``
    is the call's ``[panels taken, call bound]``.  A module-level function,
    not a closure over the call: a nested function that calls itself keeps
    a reference cycle, holding the integrand, alive after every call."""
    state[0] += 1
    if state[0] > _MAX_PANELS or depth > _MAX_DEPTH:
        raise DegenerateSubstrateError(
            f"integral does not settle within {_MAX_PANELS} panels or {_MAX_DEPTH} cuts "
            "(the integrand's rounding noise or a singularity defeats the tolerance)"
        )
    half = 0.5 * (b - a)
    mid = a + half
    kronrod = gauss = 0.0
    samples = []
    for x, wk, wg in _QK15:
        t = mid + half * x
        value, key = f(t)
        kronrod += wk * value
        gauss += wg * value
        samples.append((t, value, key))
    whole = half * kronrod
    if depth == 0:
        state[1] = tol * max(1.0, abs(whole))
    call_bound = state[1]
    cut = _key_switch(f, samples, tol)
    if cut is None:
        mean = 0.5 * kronrod
        weighted = [(wk, value) for (_, wk, _), (_, value, _) in zip(_QK15, samples)]
        resasc = abs(half) * sum(wk * abs(value - mean) for wk, value in weighted)
        resabs = abs(half) * sum(wk * abs(value) for wk, value in weighted)
        if _settled(whole, abs(half * (kronrod - gauss)), resasc, resabs, tol, call_bound):
            return whole
        # extend to the 31 nested nodes before bisecting, as dqng does
        patterson = 0.0
        extended = []
        for i, (x, wp) in enumerate(_QP31):
            if i % 2:
                sample = samples[i // 2]
            else:
                t = mid + half * x
                sample = (t, *f(t))
            patterson += wp * sample[1]
            extended.append(sample)
        cut = _key_switch(f, extended, tol)
        if cut is None:
            whole = half * patterson
            if _settled(whole, abs(half * (patterson - kronrod)), resasc, resabs, tol, call_bound):
                return whole
            cut = mid
    return _panel(f, state, a, cut, 0.5 * tol, depth + 1) + _panel(
        f, state, cut, b, 0.5 * tol, depth + 1
    )


def _corner_spans(corners: Sequence[float], period: float) -> list[tuple[float, float]]:
    """Intervals of ``[0, period]`` between consecutive ``corners``, clamped into it."""
    pts = sorted({min(max(c, 0.0), period) for c in corners} | {0.0, period})
    return list(zip(pts, pts[1:]))


def _turning_points(rate: Callable[[float], float], period: float) -> list[float]:
    """Times in ``(0, period)`` where ``rate`` changes sign: a scan of 2048
    steps, each sign change refined by bisection.  A change across scan
    nodes where the rate is zero is placed at the first of them.  The last
    node is the float below ``period``: a rate read modulo the period would
    wrap to its value at 0 there."""
    n = 2048
    ts = [period * i / n for i in range(n)] + [math.nextafter(period, 0.0)]
    splits = []
    last = None  # (index, value) of the latest node where the rate is nonzero
    for i, t in enumerate(ts):
        value = rate(t)
        if value == 0.0:
            continue
        if last is not None and (last[1] < 0.0) != (value < 0.0):
            j, flo = last
            splits.append(ts[j + 1] if i > j + 1 else _sign_change(rate, ts[j], t, flo))
        last = (i, value)
    return splits


def _sign_change(rate: Callable[[float], float], lo: float, hi: float, flo: float) -> float:
    """Where ``rate`` changes sign in ``[lo, hi]``, ``flo = rate(lo)``, by bisection."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = rate(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


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
    _require_above(0.0, "period", period)
    _require_above(0.0, "tol", tol)
    l0, l1 = profile(0.0), profile(period)
    if abs(l1 - l0) > 1e-9 * max(1.0, abs(l0)):
        raise ValueError(f"profile is not periodic: l(0)={l0}, l(T)={l1}")

    if corners is None:
        corners = _turning_points(profile_rate, period)
    coeffs = _rate_independent_coefficients(law)
    if coeffs is None:
        # one directional pair per sign of the rate, indexed by ldot > 0
        pairs = (directional_pair(law, elongating=False), directional_pair(law, elongating=True))

        def integrand(t: float) -> tuple[float, None]:
            ldot = profile_rate(t)
            if ldot != 0.0 and math.isfinite(ldot):
                return _paired_velocity(pairs[ldot > 0.0], ldot), None
            # rest, or a rate breather_velocity refuses
            return (breather_velocity(law, ldot) if ldot != 0.0 else 0.0), None

    total = 0.0
    for t0, t1 in _corner_spans(corners, period):
        dl = profile(t1) - profile(t0)
        if coeffs is not None:
            c_up, c_down = coeffs
            total += (c_up if dl > 0.0 else c_down) * dl if dl != 0.0 else 0.0
        else:
            total += adaptive_gauss(integrand, t0, t1, tol)
    return total


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
    is rate-dependent and must be simulated (``engine.simulate``).  Raises
    ``ValueError`` where the displacement leaves the float range.
    """
    _require_above(0.0, "lam", lam)
    _require_above(0.0, "delta", delta)
    _require_above(1.0, "h", h)
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
    edges = (seg1_contract, scale_up, seg1_extend, scale_down)
    _require_in_range((total, *edges), None, ("lam", lam), ("delta", delta), ("h", h))
    return StrideDisplacement(total, *edges)


def negative_displacement_feasible(
    law: FrictionLaw, lam: float, delta: float, h: float
) -> bool:
    """Whether the stride advances against the direction of least resistance.

    Dry case: ``2*alpha - 1 < 1 / (4*lam/delta + (3h-1)/(h-1))``; Newtonian:
    ``beta - 1 < 1 / (2*lam/delta + h/(h-1))``.  Both bounds are below the
    values reached at ``alpha = 2/3`` and ``beta = 2`` respectively, however
    extreme the stride geometry.
    """
    _require_above(0.0, "lam", lam)
    _require_above(0.0, "delta", delta)
    _require_above(1.0, "h", h)
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


def _width_bounds(
    law: FrictionLaw, epsilon: float, c: float, L: float
) -> tuple[tuple[float, float, float, float], float, float]:
    """``(wave params, stick-slip bound, sliding bound)``, after checking
    ``c``, ``L`` and ``epsilon`` once each."""
    _require_above(0.0, "c", c)
    _require_above(0.0, "L", L)
    _require_above(-1.0, "epsilon", epsilon)
    params = tb, mb, tf, mf = _wave_params(law, epsilon)
    ss_max = sl_max = 0.0
    if tf != 0.0:
        ss_max = tf * L / ((tb + mb * epsilon * c) * (1.0 + epsilon) + tf)
    elif mf != 0.0:
        drive = mf * epsilon * c
        den = drive + tb * (1.0 + epsilon)
        # den == 0: no yield behind the wave, and the drive underflowed
        sl_max = L if den == 0.0 else drive * L / den
    return params, ss_max, sl_max


def stickslip_delta_max(law: FrictionLaw, epsilon: float, c: float, L: float) -> float:
    """Largest wave width for which the undeformed part of the body can stick."""
    return _width_bounds(law, epsilon, c, L)[1]


def sliding_delta_max(law: FrictionLaw, epsilon: float, c: float, L: float) -> float:
    """Supremum of wave widths admitting whole-body sliding (not attained)."""
    return _width_bounds(law, epsilon, c, L)[2]


def wave_admissibility(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float
) -> WaveAdmissibility:
    """Classify a square-wave configuration per the width/rheology bounds."""
    (_, _, tau_front, mu_front), ss_max, sl_max = _width_bounds(law, epsilon, c, L)
    if epsilon == 0.0:
        raise ValueError("epsilon must be nonzero")
    if not (_isfinite("delta", delta) and 0.0 < delta < L):
        raise ValueError(f"delta={delta!r} must lie in (0, L={L!r})")
    _require_in_range((ss_max, sl_max), law, ("epsilon", epsilon), ("c", c), ("L", L))
    if tau_front != 0.0:
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
    positive for contraction waves.  Admissibility is not checked here;
    raises ``ValueError`` where the product leaves the float range.
    """
    _require_above(-1.0, "epsilon", epsilon)
    _require_above(0.0, "delta", delta)
    value = -epsilon * delta
    _require_in_range((value,), None, ("epsilon", epsilon), ("delta", delta))
    return value


def stickslip_max_displacement_dry(alpha_value: float, epsilon: float, L: float) -> float:
    """Best per-cycle stick-slip displacement on a dry substrate, i.e. at the
    largest admissible wave width for the given amplitude."""
    if not (_isfinite("alpha_value", alpha_value) and 0.0 < alpha_value < 1.0):
        raise ValueError(f"alpha_value must lie in (0, 1), got {alpha_value!r}")
    _require_above(-1.0, "epsilon", epsilon)
    _require_above(0.0, "L", L)
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


def _require_normal_stage_times(delta: float, speed: float, speed_name: str) -> None:
    """Refuse a wave whose entry time ``delta / speed`` is subnormal: its
    stage boundaries then round too coarsely to tell the stages apart."""
    if not delta / speed >= sys.float_info.min:
        raise ValueError(
            f"delta={delta!r} / {speed_name}={speed!r} is subnormal: "
            "the wave's stage times cannot be resolved"
        )


def sliding_stage_velocity(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float, t: float
) -> float:
    """Left-end velocity of a sliding crawler at time ``t`` within one period.

    The period splits into the wave entering at the left end, traveling
    fully inside, and leaving at the right end; on each stage the balance of
    the two sliding regions gives a rational expression in ``t``, evaluated
    with the lengths near 1 and the coefficients at :func:`_unit_scale`, the
    largest at ``2**500`` so that a product with a length stays in range.
    Raises ``ValueError`` where the velocity leaves the float range.
    """
    _require_sliding(law, epsilon, c, delta, L)
    _require_normal_stage_times(delta, c, "c")
    T = (L + delta) / c
    if not (_isfinite("t", t) and 0.0 <= t < T):
        raise ValueError(f"t={t} outside one period [0, {T})")
    entering, inside = t < delta / c, t < L / c
    inputs = (("epsilon", epsilon), ("c", c), ("delta", delta), ("L", L))  # before rescaling
    tb, mb, tf, mf = _wave_params(law, epsilon)
    tb, tf, mb, mf, c_unit, exp_c, _ = _unit_scale(tb, tf, mb, mf, c, top=500)
    t_unit, exp_t = math.frexp(t)
    exp_len = math.frexp(L)[1]
    ct = math.ldexp(c_unit * t_unit, exp_c + exp_t - exp_len)
    L, delta, c, e = math.ldexp(L, -exp_len), math.ldexp(delta, -exp_len), c_unit, epsilon
    if entering and ct == 0.0:  # the front rests: v = -e*c, though mf may underflow
        num, den = -e * c, 1.0
    elif entering:
        num = tb * (1.0 + e) * ct - (tf + mf * e * c) * (L - ct)
        den = mb * (1.0 + e) * ct + mf * (L - ct)
    elif inside:
        num = (tb + mb * e * c) * (1.0 + e) * delta - tf * (L - delta)
        den = mb * (1.0 + e) * delta + mf * (L - delta)
    else:
        num = (tb + mb * e * c) * (1.0 + e) * (L - ct + delta) - tf * (ct - delta)
        den = mb * (1.0 + e) * (L - ct + delta) + mf * (ct - delta)
    try:
        v = math.ldexp(num / den, exp_c)
    except OverflowError:
        v = math.inf
    _require_in_range((v,), law, *inputs)
    return v


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


def _root_mean(x0: float, x1: float, end0, end1) -> float:
    """Mean over one stretch of the falling root ``x`` of ``a x^2 + b x + c``,
    whose coefficients are affine in time, from its end values ``x0``, ``x1``
    and the coefficients ``end0``, ``end1`` (each ``(a, b, c)``) at the ends.

    Where ``a`` is zero at both ends the root is ``-c/b``, whose ``b`` keeps
    its sign (no pole inside).  With ``r = b1/b0`` and ``u = r - 1`` the mean
    is ``x0 + (x1 - x0) r S``, ``S = (u - log r) / u^2``.  The ends are
    ordered so that ``|b|`` shrinks, which keeps ``r`` in ``(0, 1]`` and
    ``r S`` in ``(0, 1/2]``: the mean is a convex combination of the end
    values, however close a pole lies outside the interval.  For ``r >=
    1/2``, ``u`` is exact and ``S`` is :func:`_u_minus_log1p_over_u2`, which
    does not cancel as ``u -> 0``; below, ``log r`` is taken from ``r``
    itself, which ``1 + u`` would round.

    Otherwise, with ``F0``, ``F1`` the polynomials at the ends and ``w`` the
    stretch's width, the root is reached at ``x`` a time ``w F0(x) / (F0(x)
    - F1(x))`` after the start, so the mean is ``x1 - (x1 - x0) m``, ``m``
    the mean of that time over ``w`` as ``x`` runs from ``x0`` to ``x1``
    (integration by parts).  With ``x = x0 + xi (x1 - x0)`` and ``F0(x0) =
    F1(x1) = 0`` that time over ``w`` is ``xi g0 / (xi g0 + (1 - xi) g1)``,
    where ``g0`` and ``g1`` are the divided differences of ``-F0`` at ``x0,
    x`` and of ``-F1`` at ``x, x1``: affine in ``xi``, with end values that
    are the slopes ``-F0'(x0)``, ``-F1'(x1)`` (the square roots of the end
    discriminants) and the differences ``(F1 - F0)(x) / (x1 - x0)`` at the
    two roots, each formed without cancellation as ``a``, ``b`` or the
    force's rate ``(F1 - F0) / w`` at the root vanish.  None of them is
    negative: the root moves one way, since it is the larger or the smaller
    of at most two monotone branches, a root that the force keeps at every
    time included, so that rate does not change sign along the stretch and
    there is nothing to cut; a negative one is rounding, taken as 0.
    :func:`_root_weight` gives ``m``.
    """
    (a0, b0, _), (a1, b1, _) = end0, end1
    if a0 == 0.0 and a1 == 0.0:
        if abs(b1) > abs(b0):
            x0, x1, b0, b1 = x1, x0, b1, b0
        r = b1 / b0
        u = r - 1.0
        s = _u_minus_log1p_over_u2(u) if r >= 0.5 else (u - math.log(r)) / (u * u)
        return x0 + (x1 - x0) * r * s
    if x1 == x0:
        return x0
    mid = x0 + x1
    ends = -(2.0 * a0 * x0 + b0), -(a0 * mid + b0), -(a1 * mid + b1), -(2.0 * a1 * x1 + b1)
    return x1 - (x1 - x0) * _root_weight(*(max(g, 0.0) for g in ends))


def _root_weight(al0: float, al1: float, be0: float, be1: float) -> float:
    """``m``, the mean over ``xi`` in [0, 1] of ``xi g0 / D``, ``D = xi g0 +
    (1 - xi) g1``, for ``g0`` affine from ``al0`` to ``al1`` and ``g1`` from
    ``be0`` to ``be1``, all >= 0 (see :func:`_root_mean`); it lies in [0, 1].

    ``D = A (1 - xi)^2 + 2 B xi (1 - xi) + C xi^2`` with ``A = be0``, ``C =
    al1``, ``2 B = al0 + be1``, and the ends are swapped so that ``A >= C``
    (``m`` becomes ``1 - m``).  Scaled to ``A = 1``, ``D = l1 l2`` with
    ``l = 1 - xi + u xi``, ``u`` the two roots of ``u^2 - 2 mu u + c``,
    ``mu = B/A``, ``c = C/A``: real or a conjugate pair.  Since ``xi / (l1
    l2) = (1/l2 - 1/l1) / (u1 - u2)``, ``m`` is minus the divided difference
    at ``u1, u2`` of ``G(u) = integral of g0 / l = ((p u - c) log u - (p -
    c)(u - 1)) / (u - 1)^2``, ``p = al0/A``.  It is evaluated one of three
    ways, none of which cancels by more than a few bits:

    * both ``s = 1 - u`` within 1/4 of 0: the power series in ``xi`` of
      ``1 / (l1 l2)``, integrated term by term, whose coefficients follow
      from ``s1 + s2`` and ``s1 s2`` without forming either root;
    * the roots apart, ``|u1 - u2| >= mu/8``: the divided difference as it
      stands, ``G`` by its series in ``1 - u`` within 1/8 of 1;
    * the roots close and away from 1: ``G = P log u + R`` for rational
      ``P`` and ``R``, whose divided differences are rational in ``s1 +
      s2`` and ``s1 s2`` and that of ``log`` is ``atanh(h/mu)/h`` (or
      ``atan``), ``h`` half the roots' distance.
    """
    big, small = be0, al1
    if big < small:
        return 1.0 - _root_weight(be1, be0, al1, al0)
    b2 = al0 + be1
    if not big > 2.0**-500 * b2:  # D = 2B xi (1 - xi) to the last bit
        return al0 / b2
    mu, c, p = 0.5 * b2 / big, small / big, al0 / big
    nu, pi = (big - 0.5 * b2) / big, (big - b2 + small) / big  # (s1 + s2)/2, s1 s2
    h2 = mu * mu - c
    h = math.sqrt(abs(h2))
    reach = abs(nu) + h if h2 >= 0.0 else math.sqrt(max(pi, 0.0))  # max |s|
    if reach <= 0.25:
        total, prev, coef, k = 0.0, 0.0, 1.0, 0
        while True:
            total += coef * (p / ((k + 2) * (k + 3)) + c / (k + 3))
            k += 1
            if (k + 1) * reach**k < 1e-17:
                return total
            prev, coef = coef, 2.0 * nu * coef - pi * prev
    if c == 0.0 or 2.0 * h >= 0.125 * mu:

        def G(u):
            v = u - 1.0
            if abs(v) < 0.125:
                total, power, k = 0.0, 1.0, 0
                while abs(power) > 1e-17:
                    total += power * (p / ((k + 1) * (k + 2)) + c / (k + 2))
                    k += 1
                    power *= -v
                return total
            if u == 0.0:
                return p
            return ((p * u - c) * (cmath.log(u) if h2 < 0.0 else math.log(u)) - (p - c) * v) / (v * v)

        if h2 < 0.0:
            return -G(complex(mu, h)).imag / h
        u1 = mu + h
        u2 = c / u1
        return -(G(u1) - G(u2)) / (u1 - u2)
    if h2 > 0.0:
        tanh_part = math.atanh(h / mu) / h if h < 0.5 * mu else math.log((mu + h) ** 2 / c) / (2.0 * h)
    else:
        tanh_part = math.atan(h / mu) / h if h else 1.0 / mu
    kappa = p - c
    mean_p = kappa * (2.0 * nu * nu - pi) - p * pi * nu  # times pi^2
    slope_p = 2.0 * kappa * nu - p * pi  # times pi^2
    return -((mean_p * tanh_part + slope_p * 0.5 * math.log(c)) / (pi * pi) + kappa / pi)


def sliding_cycle_displacement(
    law: FrictionLaw, epsilon: float, c: float, delta: float, L: float
) -> SlidingDisplacement:
    """Stage-resolved per-cycle displacement of a sliding crawler.

    Evaluated in a form that is uniformly stable across the parameter locus
    where the viscosity of the stretched region matches the rest of the body
    (where the textbook log expression degenerates); the exit contribution
    always exceeds the entry one by exactly ``epsilon * delta``.  Raises
    ``ValueError`` where it leaves the float range (``u * u`` overflowing
    would zero the exit term; ``L * mu`` underflowing would divide by zero).
    """
    _require_sliding(law, epsilon, c, delta, L)
    tb, mb, tf, mf = _wave_params(law, epsilon)
    e = epsilon
    d = (1.0 + e) * mb - mf
    try:
        u = delta * d / (L * mf)
        p = (1.0 + e) * (tb + mb * e * c) / c
        s = _u_minus_log1p_over_u2(u)
        exit_ = p * delta * delta / (L * mf) * s
        enter = exit_ - e * delta
        inside = delta * (L - delta) * p / (L * mf + delta * d)
        total = enter + inside + exit_
    except ZeroDivisionError:
        u = total = math.nan
    _require_in_range((u * u, total), law, ("epsilon", e), ("c", c), ("delta", delta), ("L", L))
    return SlidingDisplacement(total, enter, inside, exit_)


def newtonian_sliding_displacement(
    beta_value: float, epsilon: float, delta: float, L: float
) -> float:
    """Per-cycle sliding displacement on a purely Newtonian substrate.

    Independent of the wave speed; extension and contraction waves are both
    admissible for any width below the body length.  ``beta_value`` is the
    viscous asymmetry ratio sqrt(mu_minus / mu_plus).
    """
    _require_above(0.0, "beta_value", beta_value)
    if epsilon == 0.0:  # no wave: no sliding form checks delta and L
        _require_above(0.0, "delta", delta)
        _require_above(0.0, "L", L)
        return 0.0
    law = FrictionLaw(0.0, 0.0, beta_value * beta_value, 1.0)
    return sliding_cycle_displacement(law, epsilon, 1.0, delta, L).total
