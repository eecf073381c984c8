"""Exception types shared across the package."""


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
