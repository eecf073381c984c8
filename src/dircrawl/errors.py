"""Exception types shared across the package."""


class DegenerateSubstrateError(RuntimeError):
    """The force balance has no solution: the substrate cannot resist the
    imposed shape change and the body would slide without bound."""


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
