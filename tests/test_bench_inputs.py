"""The benchmark's inputs stay put under library changes.

``perfbench/inputs.py`` draws its waves with ``analytic.stickslip_delta_max``,
``sliding_delta_max`` and ``wave_admissibility``, and computes its closed
forms through ``analytic`` and the gaits' ``monotone_corners`` and profile
methods.  A library change that moves a drawn input, or drops a name the
benchmark calls, fails here before it skews a parent-versus-change run.

The digest is the SHA-256 of ``repr`` of the first rotation of each stream
for seeds 1-3.  A change to ``perfbench/inputs.py`` itself regenerates it,
deliberately, with ``_rotations_digest()``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import dircrawl
from dircrawl import analytic, balance, body, engine

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)
_trace_spec = importlib.util.spec_from_file_location(
    "perfbench_layertrace", Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
)
layertrace = importlib.util.module_from_spec(_trace_spec)
_trace_spec.loader.exec_module(layertrace)

SEEDS = (1, 2, 3)
STREAMS = ("cycles", "trajectory", "cli")
ROTATIONS_SHA256 = "8cd164f41fea0a055c1caa9276ba35ee1dda48d85b3b254c5a4a18654b42d596"


def _rotations() -> list[list]:
    return [inputs.rotation(seed, s, 0, dircrawl) for seed in SEEDS for s in STREAMS]


def _rotations_digest() -> str:
    return hashlib.sha256(repr(_rotations()).encode()).hexdigest()


def test_drawn_rotations_unchanged():
    assert _rotations_digest() == ROTATIONS_SHA256


def test_the_benchmark_finds_its_gait_hooks():
    # The tracer patches shape_at/rate_at in each gait class's own namespace,
    # and the inputs call the profile aliases; a plain run does neither.
    for name in layertrace._GAIT_CLASSES:
        assert set(layertrace._GAIT_METHODS) <= vars(getattr(body, name)).keys(), name
    tracer = layertrace.Tracer(layertrace.import_dircrawl()[0])
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    breather = body.Breather(1.0, 0.5, 2.0)
    crawler = body.ConstantLength(1.0, 0.5, 0.4, 0.2, 2.0)
    for gait, value, rate in (
        (breather, breather.length_at, breather.length_rate_at),
        (crawler, crawler.seg1_length_at, crawler.seg1_rate_at),
    ):
        assert (value(0.3), rate(0.3)) == (gait._value(0.3), gait._rate(0.3))
        assert gait.monotone_corners() == gait.corner_times()


def test_closed_forms_match_engine():
    for case in (c for rotation in _rotations() for c in rotation):
        expected = inputs.closed_form(case, dircrawl)
        value = engine.cycle_displacement(*case.build(dircrawl)).analytic_value
        if expected is None:
            assert value is None, case
        else:
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), case


def test_admitted_waves_keep_their_regime_at_every_stage_midpoint():
    # the width bounds are the paper's; the solver knows nothing of them
    waves = [cls for cls in inputs.CLASSES if "_wave/" in cls]
    checked = 0
    for seed in range(1, 161):
        for cls in waves:
            law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
            adm = analytic.wave_admissibility(
                law, gait.epsilon, gait.speed, gait.delta, gait.ref_length
            )
            if adm.regime == "infeasible" or not gait.delta <= 0.99 * adm.delta_max:
                continue
            checked += 1
            for a, b in analytic._corner_spans(gait.corner_times(), gait.period):
                t = 0.5 * (a + b)
                sol = balance.solve_velocity(law, gait.shape_at(t), gait.rate_at(t))
                assert sol.regime == adm.regime, (seed, cls, t)
    assert checked == 640
