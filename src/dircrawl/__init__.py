"""Quasi-static crawling of one-dimensional bodies on directional
frictional substrates.

The package splits into small, composable layers:

- ``friction``: the set-valued directional force-velocity law;
- ``body``: piecewise-affine shapes, rates, and periodic gait programs
  (breathers, constant-length crawlers, composite strides, square waves);
- ``analytic``: closed-form per-cycle displacements for every standard gait;
- ``balance``: the exact quasi-static force-balance solver;
- ``engine``: trajectory integration, verification, sweeps, figure data;
- ``midpoint``: the time-stepped midpoint grid, the one module using numpy;
- ``cli``: the ``dircrawl`` command-line front end.
"""

from .analytic import (
    BreatherRoots,
    SlidingDisplacement,
    StrideDisplacement,
    WaveAdmissibility,
    breather_cycle_displacement,
    breather_roots,
    breather_velocity,
    composite_stride_displacement,
    negative_displacement_feasible,
    newtonian_sliding_displacement,
    sliding_cycle_displacement,
    sliding_stage_velocity,
    stickslip_displacement,
    stickslip_max_displacement_dry,
    wave_admissibility,
)
from .balance import (
    SLIDING,
    STICK_SLIP,
    WHOLE_BODY_STICK,
    BalanceSolution,
    solve_velocity,
    total_force,
)
from .body import (
    Breather,
    CompositeStride,
    ConstantLength,
    GaitProgram,
    PiecewiseAffineShape,
    ShapeRate,
    SquareWave,
    TwoSegmentPath,
)
from .engine import (
    CycleReport,
    SweepRow,
    Trajectory,
    VerifyReport,
    cycle_displacement,
    figure6_data,
    figure7_data,
    simulate,
    sweep,
    verify,
)
from .errors import (
    ConfigError,
    DegenerateSubstrateError,
    MixedRheologyError,
    RegimeMismatchError,
    StepLimitError,
    UnsupportedPairError,
)
from .friction import (
    DirectionalPair,
    ForceValue,
    FrictionLaw,
    alpha,
    beta,
    directional_pair,
    evaluate,
    scale,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # friction
    "FrictionLaw",
    "ForceValue",
    "DirectionalPair",
    "evaluate",
    "scale",
    "directional_pair",
    "alpha",
    "beta",
    # body
    "PiecewiseAffineShape",
    "ShapeRate",
    "Breather",
    "ConstantLength",
    "TwoSegmentPath",
    "CompositeStride",
    "SquareWave",
    "GaitProgram",
    # analytic
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
    "stickslip_displacement",
    "stickslip_max_displacement_dry",
    "sliding_stage_velocity",
    "sliding_cycle_displacement",
    "newtonian_sliding_displacement",
    # balance
    "BalanceSolution",
    "total_force",
    "solve_velocity",
    "SLIDING",
    "STICK_SLIP",
    "WHOLE_BODY_STICK",
    # engine
    "Trajectory",
    "CycleReport",
    "VerifyReport",
    "SweepRow",
    "simulate",
    "cycle_displacement",
    "verify",
    "sweep",
    "figure6_data",
    "figure7_data",
    # errors
    "DegenerateSubstrateError",
    "MixedRheologyError",
    "RegimeMismatchError",
    "UnsupportedPairError",
    "StepLimitError",
    "ConfigError",
]
