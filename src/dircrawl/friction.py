"""Directional Bingham-type friction laws for a one-dimensional substrate.

The substrate resists sliding with a force per unit *current* length whose
magnitude depends on the sign of the local velocity:

    v < 0 :  tau_minus - mu_minus * v          (positive, resists backward slip)
    v = 0 :  any value in [-tau_plus, tau_minus]   (static range)
    v > 0 :  -tau_plus - mu_plus * v           (negative, resists forward slip)

``tau_*`` are yield force densities, ``mu_*`` viscous coefficients; all four
are non-negative and at least one must be positive.  Two special cases are
worth naming: *dry* friction (``mu_minus == mu_plus == 0``, force depends
only on the sign of the velocity) and *Newtonian* friction
(``tau_minus == tau_plus == 0``, force linear in speed with a
direction-dependent coefficient).

Everything here is nondimensional; callers pick a consistent unit system.
The zero-velocity branch is kept as an explicit interval because downstream
solvers rely on the set-valuedness to resolve stick regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _isfinite, _require_above

__all__ = [
    "FrictionLaw",
    "ForceValue",
    "DirectionalPair",
    "evaluate",
    "scale",
    "directional_pair",
    "alpha",
    "beta",
]


@dataclass(frozen=True)
class FrictionLaw:
    """Parameters of the directional force-velocity law.

    ``tau_minus``/``mu_minus`` act on material sliding backward (v < 0),
    ``tau_plus``/``mu_plus`` on material sliding forward (v > 0).
    """

    tau_minus: float
    tau_plus: float
    mu_minus: float
    mu_plus: float

    def __post_init__(self) -> None:
        for name in ("tau_minus", "tau_plus", "mu_minus", "mu_plus"):
            value = getattr(self, name)
            if not _isfinite(name, value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.tau_minus == self.tau_plus == self.mu_minus == self.mu_plus == 0.0:
            raise ValueError("all four friction parameters are zero: no substrate interaction")

    @property
    def is_dry(self) -> bool:
        return self.mu_minus == 0.0 and self.mu_plus == 0.0

    @property
    def is_newtonian(self) -> bool:
        return self.tau_minus == 0.0 and self.tau_plus == 0.0


@dataclass(frozen=True)
class ForceValue:
    """A force density: either a single value or a closed interval.

    The interval case arises only at zero velocity, where the static force
    can take any value in ``[-tau_plus, tau_minus]`` (scaled by contact
    length when integrated).  ``lo == hi`` encodes a point value.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> float:
        if not self.is_point:
            raise ValueError("force value is an interval, not a point")
        return self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class DirectionalPair:
    """Signed yield/viscosity pairs assigned to the two velocity-sign regions
    of a deforming body.

    ``(tau_1, mu_1)`` applies where the velocity has the sign of the left
    end's motion, ``(tau_2, mu_2)`` to the opposite region.  ``tau_1`` and
    ``tau_2`` carry the sign the force actually takes there (so ``tau_2`` is
    ``-tau_plus`` during elongation).
    """

    tau_1: float
    mu_1: float
    tau_2: float
    mu_2: float


def evaluate(law: FrictionLaw, v: float) -> ForceValue:
    """Force density exerted by the substrate on material sliding at ``v``, not NaN."""
    if not _isfinite("v", v) and math.isnan(v):
        raise ValueError("v must not be nan")
    if v < 0.0:
        f = law.tau_minus - law.mu_minus * v
        return ForceValue(f, f)
    if v > 0.0:
        f = -law.tau_plus - law.mu_plus * v
        return ForceValue(f, f)
    return ForceValue(-law.tau_plus, law.tau_minus)


def scale(law: FrictionLaw, k: float) -> FrictionLaw:
    """Multiply all four parameters by ``k > 0``.

    Evaluates to ``k`` times the original law at every velocity, so force
    balances (and hence all quasi-static velocities) are unchanged.
    """
    _require_above(0.0, "k", k)
    return FrictionLaw(
        law.tau_minus * k, law.tau_plus * k, law.mu_minus * k, law.mu_plus * k
    )


def directional_pair(law: FrictionLaw, elongating: bool) -> DirectionalPair:
    """Assign (tau, mu) pairs to the two velocity-sign regions of a body
    that is elongating (``ldot > 0``) or contracting.

    During elongation the left part of the body slides backward, so region 1
    sees the backward-sliding parameters and region 2 the forward ones (with
    the sign the force takes there); contraction swaps the assignment.
    """
    if elongating:
        return DirectionalPair(law.tau_minus, law.mu_minus, -law.tau_plus, law.mu_plus)
    return DirectionalPair(-law.tau_plus, law.mu_plus, law.tau_minus, law.mu_minus)


def alpha(law: FrictionLaw) -> float:
    """Dry-friction asymmetry ratio ``tau_minus / (tau_minus + tau_plus)``."""
    total = law.tau_minus + law.tau_plus
    if total == 0.0:
        raise ValueError("alpha undefined: tau_minus + tau_plus == 0")
    return law.tau_minus / total


def beta(law: FrictionLaw) -> float:
    """Viscous asymmetry ratio ``sqrt(mu_minus / mu_plus)``.

    Returns 0.0 at the ``mu_minus == 0`` boundary; raises when ``mu_plus``
    vanishes (the ratio is then unbounded).
    """
    if law.mu_plus == 0.0:
        raise ValueError("beta undefined: mu_plus == 0")
    return math.sqrt(law.mu_minus / law.mu_plus)
