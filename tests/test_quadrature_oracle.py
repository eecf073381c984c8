"""The default cycle integrator on mixed-law profile gaits, against QUADPACK.

On a mixed law every node of a breather's or a constant-length crawler's
stage is a balance solve, and the stage is integrated by
``analytic.adaptive_gauss``.  ``verify`` cannot check that quadrature: its
closed form runs ``adaptive_gauss`` on the same stages, so both sides share
their nodes.  The oracle here shares none: scipy's ``quad`` (QUADPACK
``dqags``, 21-point Gauss–Kronrod panels with extrapolation) over the same
``balance._solve`` on the gait's ``_pieces_at``, stage by stage.  The
built-in profiles are smooth; a singular one is not an input here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from scipy.integrate import quad

import dircrawl
from dircrawl import analytic, balance, engine

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)


@pytest.mark.parametrize("cls", ["breather/mixed", "constant_length/mixed"])
def test_stages_match_quadpack(cls):
    # the largest gap on these cases is 1.7e-16 of max(1, |stage|)
    for seed in range(1, 41):
        law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
        report = engine.cycle_displacement(law, gait)

        def velocity(t):
            return balance._solve(law, *gait._pieces_at(t))[0]

        spans = analytic._corner_spans(gait.corner_times(), gait.period)
        assert len(spans) == len(report.contributions), seed
        for (a, b), (_, value) in zip(spans, report.contributions):
            ref = quad(velocity, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert abs(value - ref) <= engine._CYCLE_TOL * max(1.0, abs(ref)), (seed, value, ref)
        total = sum(value for _, value in report.contributions)
        assert report.net_displacement == total, seed
