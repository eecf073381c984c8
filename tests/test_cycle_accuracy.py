"""Accuracy of the default per-cycle integrator on the benchmark's inputs.

The inputs are the first rotation of ``perfbench``'s ``cycles`` workload for
seeds 1-10: 15 gait-by-law classes each.  Where a closed form exists, the
default (stage-wise Gauss–Kronrod) path must match it to 1e-10 relative.
The three classes without one are compared with the midpoint grid at
period/1e5; the default path must be no farther from it than the midpoint
grid at period/2000, the integrator it replaced.  Those references take
about 3 s each, so they are stored here; they were computed with::

    engine.cycle_displacement(law, gait, dt=gait.period / 1e5).net_displacement
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import dircrawl
from dircrawl import engine

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

SEEDS = range(1, 11)

MIDPOINT_1E5 = {
    "composite_stride/mixed": (
        -0.31840217597410814,
        0.22734491281989552,
        -0.41714848321999665,
        -0.17326079986873147,
        -0.2182693958109584,
        0.3324643010622816,
        -0.06370588395378533,
        -0.06850498982174225,
        0.3152897549064618,
        -0.048608211124814456,
    ),
    "sliding_wave/dry": (
        0.24939367712798666,
        0.40467212734639196,
        -0.040468797694872896,
        0.40161974829492214,
        0.29569720906790703,
        0.1523753687983508,
        0.2918702071305832,
        0.15506811822698952,
        0.24982230567989866,
        -0.03644846367944951,
    ),
    "stick_slip_wave/newtonian": (
        1.3687895430983346,
        -0.20972776617781838,
        0.5648016562546282,
        0.44224417143913874,
        1.1497317465489088,
        0.6472349615872421,
        0.692825715673141,
        -0.19385698172233942,
        -0.2276413897109454,
        0.6647244468124975,
    ),
}

# Bound on the rounding error of a reference, a sum of 1e5 steps, relative
# to max(1, |reference|): below it no integrator can be told apart from it.
_REFERENCE_ROUNDING = 1e5 * sys.float_info.epsilon


def _case(seed: int, cls: str):
    return inputs.draw(seed, "cycles", 0, cls, dircrawl)


@pytest.mark.parametrize("cls", [c for c in inputs.CLASSES if c not in inputs.NO_CLOSED_FORM])
def test_closed_forms_to_1e10(cls):
    for seed in SEEDS:
        law, gait = _case(seed, cls).build(dircrawl)
        rep = engine.cycle_displacement(law, gait)
        assert rep.rel_residual <= 1e-10, (seed, rep.net_displacement, rep.analytic_value)
        assert rep.n_steps <= 250


@pytest.mark.parametrize("cls", sorted(inputs.NO_CLOSED_FORM))
def test_no_farther_from_fine_midpoint_than_default_midpoint(cls):
    for seed, ref in zip(SEEDS, MIDPOINT_1E5[cls]):
        law, gait = _case(seed, cls).build(dircrawl)
        default = engine.cycle_displacement(law, gait)
        midpoint = engine.cycle_displacement(law, gait, dt=gait.period / 2000)
        assert default.analytic_value is None and default.n_steps <= 250
        err = abs(default.net_displacement - ref)
        floor = _REFERENCE_ROUNDING * max(1.0, abs(ref))
        assert err <= max(abs(midpoint.net_displacement - ref), floor), seed
