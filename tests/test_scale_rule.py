"""The balance solver's tolerances scale with its inputs.

``balance._breaks_and_scales`` and ``balance._widened`` hold the rule: the
velocity scale is the largest ``|rate|``, the force scale follows from it and
the body length, and a root is kept within a slack relative to its gap's own
magnitude.  No unit floor stands in the way, so a solve is homogeneous in the
rates: scaling every rate by ``2**k`` and every viscosity by ``2**-k`` scales
the solution by exactly ``2**k``, and scaling the lengths leaves it unchanged.
The constant-rate stage model in ``engine`` calls the same helpers and the
midpoint rows restate them in array form, so both follow.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dircrawl
from dircrawl import balance, engine
from dircrawl.body import Breather, CompositeStride, ConstantLength, SquareWave
from dircrawl.friction import FrictionLaw
from kernel_rows import kernel_rows

pytestmark = pytest.mark.bits

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

CONSTANT_RATE = tuple(
    c
    for c in inputs.CLASSES
    if c.split("/")[0] in ("composite_stride", "stick_slip_wave", "sliding_wave")
)
_NEWTONIAN = FrictionLaw(0.0, 0.0, 1.0, 3.0)
# Rates far below 1, where a unit floor on the velocity scale would put every
# force of these Newtonian gaits within the acceptance tolerance.
_TINY_RATES = (
    (_NEWTONIAN, SquareWave(1.0, 0.3, 0.5, 1e-14)),
    (_NEWTONIAN, Breather(1.0, 0.5, 1e14)),
)


def _times(gait) -> list[float]:
    return [(k + 0.5) * gait.period / 64 for k in range(64)]


def _scalar_rows(law, gait) -> list[balance.BalanceSolution]:
    return [balance.solve_velocity(law, gait.shape_at(t), gait.rate_at(t)) for t in _times(gait)]


def test_tiny_rates_are_solved_not_rounded_to_rest():
    x, regime, _, _, _ = balance._solve(_NEWTONIAN, [(0.0, 1.0, 0.0, 1e-14)], 1.0)
    assert (x, regime) == (-6.339745962155614e-15, balance.SLIDING)
    for law, gait in _TINY_RATES:
        assert all(sol.x1dot != 0.0 for sol in _scalar_rows(law, gait))


@pytest.mark.parametrize("law, gait", _TINY_RATES)
@pytest.mark.parametrize("dt_per_period", [None, 1 / 2000])
def test_tiny_rate_gaits_match_their_closed_forms(law, gait, dt_per_period):
    dt = None if dt_per_period is None else gait.period * dt_per_period
    assert engine.verify(law, gait, dt=dt).passed


def test_an_idle_huge_viscosity_does_not_set_the_tolerance():
    # the yield 7.2e245 drives the body back; with a unit velocity scale the
    # idle viscosity 1.59e285 made the tolerance 1.6e272 and the answer 0.0
    law = FrictionLaw(3.03e-184, 7.21e245, 1.59e285, 0.792)
    assert balance._solve(law, [(0.0, 1.0, 0.0, 1e-300)], 1.0)[0] == -1e-300


def test_batch_rows_match_the_scalar_solve():
    cases = list(_TINY_RATES)
    for cls in inputs.CLASSES:
        cases.append(inputs.draw(1, "trajectory", 0, cls, dircrawl).build(dircrawl))
    for law, gait in cases:
        mids, x1dot, regime, residual, n_scalar = kernel_rows(law, gait, _times(gait))
        expected = [
            balance.solve_velocity(law, gait.shape_at(t), gait.rate_at(t)) for t in mids.tolist()
        ]
        # a row on a stage end is not strictly inside a stage: no model places it
        ends = {stage[0] for stage in getattr(gait, "_stages", list)()}
        assert n_scalar == sum(t % gait.period in ends for t in mids.tolist()), gait
        assert x1dot.tobytes() == np.array([sol.x1dot for sol in expected]).tobytes(), gait
        assert [balance.REGIMES[r] for r in regime] == [sol.regime for sol in expected], gait
        assert residual.tobytes() == np.array([sol.residual for sol in expected]).tobytes(), gait


def test_stage_model_agrees_with_every_solve(monkeypatch):
    # A stretch whose solve disagrees with the model's prediction, or a stage
    # the model cannot describe, is integrated by quadrature over the solver.
    disagreements = []
    sub_interval, stage = engine._sub_interval, engine._AffineStage

    def checked_sub_interval(*args):
        part = sub_interval(*args)
        if part is None:
            disagreements.append(args[1:])
        return part

    class CheckedStage(stage):
        def __init__(self, *args):
            super().__init__(*args)
            if self.conds is None:
                disagreements.append(args[1:3])

    monkeypatch.setattr(engine, "_sub_interval", checked_sub_interval)
    monkeypatch.setattr(engine, "_AffineStage", CheckedStage)
    engine.cycle_displacement(*_TINY_RATES[0])  # the wave at speed 1e-14
    assert disagreements == []
    for cls in CONSTANT_RATE:
        for seed in range(1, 21):
            law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
            engine.cycle_displacement(law, gait)
            assert disagreements == [], (cls, seed)


# Inputs whose products stay normal at every 2**k, |k| <= 500, below: the
# gap polynomial's b*b scales by 2**(-2k) and leaves the double range beyond.
_MAG = st.floats(0.25, 4.0)
_COEF = st.one_of(st.just(0.0), _MAG)
_RATE = st.one_of(st.just(0.0), _MAG, _MAG.map(lambda r: -r))
_K = st.integers(-500, 500)


@st.composite
def _cases(draw):
    """A law (yields and viscosities, not all zero) and 1 to 3 contiguous
    pieces ``(s0, s1, r0, r1)`` from 0, with their total length."""
    coefs = [draw(_COEF) for _ in range(4)]
    if not any(coefs):
        coefs[draw(st.integers(0, 3))] = 1.0
    pieces = []
    s0, prev = 0.0, draw(_RATE)
    for _ in range(draw(st.integers(1, 3))):
        s1 = s0 + draw(_MAG)
        # a continuous field, a rigid piece (equal end rates) or a jump
        r0 = draw(st.one_of(st.just(prev), _RATE))
        r1 = draw(st.one_of(st.just(r0), _RATE))
        pieces.append((s0, s1, r0, r1))
        s0, prev = s1, r1
    return FrictionLaw(*coefs), pieces, s0


def _scaled(law, pieces, k: int, j: int = 0):
    """Rates by ``2**k``, viscosities by ``2**-k`` and lengths by ``2**j``."""
    law = FrictionLaw(
        law.tau_minus, law.tau_plus, math.ldexp(law.mu_minus, -k), math.ldexp(law.mu_plus, -k)
    )
    pieces = [
        (math.ldexp(s0, j), math.ldexp(s1, j), math.ldexp(r0, k), math.ldexp(r1, k))
        for s0, s1, r0, r1 in pieces
    ]
    return law, pieces, pieces[-1][1]


@settings(max_examples=300, deadline=None)
@given(_cases(), _K)
# a plateau, a crossing piece on a Newtonian law, a body at rest
@example((FrictionLaw(1.0, 1.0, 0.0, 0.0), [(0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 1.0, 0.0)], 2.0), 500)
@example((FrictionLaw(0.0, 0.0, 1.0, 3.0), [(0.0, 1.0, -1.0, 1.0)], 1.0), -500)
@example((FrictionLaw(0.0, 0.0, 0.0, 1.0), [(0.0, 1.0, 0.0, 0.0)], 1.0), 77)
def test_rates_scale_the_solution_exactly(case, k):
    law, pieces, l_total = case
    x, regime, _, stick, signs = balance._solve(law, pieces, l_total)
    slaw, spieces, sl_total = _scaled(law, pieces, k)
    sx, sregime, _, sstick, ssigns = balance._solve(slaw, spieces, sl_total)
    assert (sx.hex(), sregime, sstick, ssigns) == (math.ldexp(x, k).hex(), regime, stick, signs)


@settings(max_examples=100, deadline=None)
@given(st.tuples(_COEF, _COEF, _COEF, _COEF).filter(any), st.booleans(), _K)
def test_profile_rows_scale_exactly(coefs, crawler, k):
    # A period 2**-k times as long scales every rate of the default bump by
    # exactly 2**k, and the kernel's grid by 2**-k: the midpoint rows, read
    # from the closed-form breakpoint forces, scale like the scalar solve.
    law = FrictionLaw(*coefs)
    slaw, _, _ = _scaled(law, [(0.0, 1.0, 0.0, 0.0)], k)
    targets = np.arange(16) / 16 + 0.01
    rows = []
    for law_, period in ((law, 1.0), (slaw, math.ldexp(1.0, -k))):
        gait = ConstantLength(1.0, 0.5, 0.3, 0.4, period) if crawler else Breather(1.0, 0.5, period)
        rows.append(kernel_rows(law_, gait, targets * period))
    (_, x, regime, _, n_scalar), (_, sx, sregime, _, sn_scalar) = rows
    assert sx.tobytes() == np.ldexp(x, k).tobytes()
    assert (sregime.tobytes(), sn_scalar) == (regime.tobytes(), n_scalar)


@settings(max_examples=200, deadline=None)
@given(_cases(), st.integers(-400, 400))
def test_lengths_leave_the_solution_unchanged(case, j):
    law, pieces, l_total = case
    x, regime, _, _, signs = balance._solve(law, pieces, l_total)
    slaw, spieces, sl_total = _scaled(law, pieces, 0, j)
    sx, sregime, _, _, ssigns = balance._solve(slaw, spieces, sl_total)
    assert (sx.hex(), sregime, ssigns) == (x.hex(), regime, signs)


# A Newtonian law has no time scale: a cycle gives the same bits at any gait
# speed or period.
_TIME_FREE = (FrictionLaw(0.0, 0.0, 1.0, 3.0), FrictionLaw(0.0, 0.0, 1.0, 0.0))
_TIMED = {
    "wave": lambda s: SquareWave(1.0, 0.3, 0.5, s),
    "contraction_wave": lambda s: SquareWave(1.3, 0.4, -0.4, 0.7 * s),
    "stride": lambda s: CompositeStride(0.5, 0.25, 1.5, s),
    "breather": lambda s: Breather(1.0, 0.4, s),
    "crawler": lambda s: ConstantLength(1.0, 0.5, 0.4, 0.2, s),
}


def _cycle(law, gait) -> tuple:
    rep = engine.cycle_displacement(law, gait)
    return rep.net_displacement.hex(), [(lbl, v.hex()) for lbl, v in rep.contributions]


@pytest.mark.parametrize("law", _TIME_FREE)
@pytest.mark.parametrize("name", sorted(_TIMED))
def test_newtonian_cycles_ignore_the_time_scale_bit_for_bit(law, name):
    make = _TIMED[name]
    base = _cycle(law, make(1.0))
    for k in (-500, -123, -40, -1, 1, 40, 321, 500):
        assert _cycle(law, make(2.0**k)) == base, k


@pytest.mark.parametrize("name", sorted(_TIMED))
def test_newtonian_trajectories_ignore_the_time_scale_bit_for_bit(name):
    law, make = _TIME_FREE[0], _TIMED[name]
    base = engine.simulate(law, make(1.0), n_periods=1)
    for k in (-500, 500):
        traj = engine.simulate(law, make(2.0**k), n_periods=1)
        for field in ("x1", "x2", "l"):
            assert getattr(traj, field).tobytes() == getattr(base, field).tobytes(), (k, field)
        assert traj.regimes == base.regimes, k
