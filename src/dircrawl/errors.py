"""Exception types shared across the package, and the checks every public
number goes through: :func:`_isfinite`, which names an integer too large for
a float, and :func:`_require_above`, the one strict-bound check."""

import math


def _isfinite(name: str, value) -> bool:
    """``math.isfinite(value)``; raises ``ValueError`` naming ``name`` where
    ``value`` is an integer too large for a float.  The message gives its
    size in bits: the repr of an integer over 4300 digits raises."""
    try:
        return math.isfinite(value)
    except OverflowError:
        raise ValueError(
            f"{name} is an integer of {value.bit_length()} bits, too large for a float"
        ) from None


def _require_above(bound: float, name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and above ``bound``."""
    if not (_isfinite(name, value) and value > bound):
        raise ValueError(f"{name} must be finite and exceed {bound:g}, got {value!r}")


class DegenerateSubstrateError(RuntimeError):
    """Floating point cannot resolve the motion.  A valid law always has a
    solution, since friction only opposes sliding; this is raised at scales
    where the forces overflow or the balance is lost to rounding, and where
    a cycle's stage integral does not settle within the quadrature's panel
    and depth caps, where the velocity's rounding noise or a singularity
    defeats the tolerance."""


class MixedRheologyError(ValueError):
    """A closed-form stride result was requested for a substrate that is
    neither purely dry nor purely viscous; use ``engine.simulate`` instead."""


class RegimeMismatchError(ValueError):
    """A wave formula was evaluated outside its admissible regime."""


class UnsupportedPairError(ValueError):
    """No closed-form reference value exists for the given law/gait pair."""


class StepLimitError(ValueError):
    """The requested ``dt`` would need more integration steps than the
    engine takes in one call."""


class ConfigError(ValueError):
    """Invalid run configuration (bad value, unknown key, wrong type)."""
