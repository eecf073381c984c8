"""The default cycle integrator on profile gaits over mixed laws.

A breather's or a constant-length crawler's rates run from 0 to ``p'`` along
the body, so every node of the quadrature has the breakpoints ``0`` and
``-p'``, and the solver's one candidate is the root on the gap between them
wherever the force at both clears the acceptance tolerance by
``balance._MARGIN``.  ``engine._profile_nodes`` solves such a node on that gap
alone (``balance._gap_root``, ``balance._classified``), and every other node
with ``balance._solve``.  Its answers must be ``_solve``'s bit for bit, and
each node still counts as one balance solve.

Also here: the default cycle leaves no cyclic garbage, since a call of
``analytic.adaptive_gauss`` no longer keeps a reference cycle alive.
"""

from __future__ import annotations

import gc
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dircrawl
from dircrawl import analytic, balance, engine
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw
import oracles

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

MIXED_PROFILE = ("breather/mixed", "constant_length/mixed")
_SEEDS = (*range(1, 41), *range(101, 141))


def _cases(cls):
    for seed in _SEEDS:
        yield seed, inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)


@pytest.mark.parametrize("cls", MIXED_PROFILE)
def test_stage_sums_equal_the_per_node_integrator_bit_for_bit(cls):
    for seed, (law, gait) in _cases(cls):
        got = [value for _, value in engine.cycle_displacement(law, gait).contributions]
        assert got == oracles.reference_profile_stages(law, gait, engine._CYCLE_TOL), seed


@pytest.mark.parametrize("cls", MIXED_PROFILE)
def test_a_mixed_profile_op_makes_at_most_two_full_solves(cls, monkeypatch):
    # every node of these cycles clears the margin; a full solve at every
    # node would make 30 to 186 per op
    calls = []
    solve = balance._solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(balance, "_solve", counted)
    for seed, (law, gait) in _cases(cls):
        del calls[:]
        report = engine.verify(law, gait)
        assert report.passed, seed
        assert len(calls) <= 2, (seed, len(calls))


@pytest.mark.parametrize("cls", MIXED_PROFILE)
def test_every_node_still_counts_as_a_solve(cls, monkeypatch):
    # the per-node integrator solves every node in full, and records each
    solves = []
    reference = oracles.reference_solve

    def recorded(*args):
        solves.append(reference(*args))
        return solves[-1]

    monkeypatch.setattr(oracles, "reference_solve", recorded)
    for seed, (law, gait) in list(_cases(cls))[:10]:
        del solves[:]
        oracles.reference_profile_stages(law, gait, engine._CYCLE_TOL)
        report = engine.cycle_displacement(law, gait)
        assert report.n_steps == len(solves), seed
        assert report.meta["regime_counts"] == dict(Counter(regime for _, regime, *_ in solves))
        assert report.meta["residual_max"] == max(residual for _, _, residual, *_ in solves)


def _outcome(solve, law: FrictionLaw, pieces, l_total: float):
    """A solve's result with the sign of a zero ``x`` spelled out, or its error."""
    try:
        x, regime, residual, stick, signs = solve(law, pieces, l_total)
    except DegenerateSubstrateError as exc:
        return "error", str(exc)
    return math.copysign(1.0, x), x.hex(), regime, residual.hex(), stick, signs


def _pieces(rate: float, length: float, split: float | None):
    """A breather's pieces (``split`` None) or a constant-length crawler's,
    as their ``_pieces_at`` builds them."""
    if split is None:
        return [(0.0, length, 0.0, rate)], length
    l1 = split * length
    return [(0.0, l1, 0.0, rate), (l1, length, rate, 0.0)], length


# 1e-24 .. 1e24, either sign; a few rates the node hands to _solve
_DECADES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-24, 24))
_RATE = st.one_of(
    _DECADES,
    _DECADES.map(lambda v: -v),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
_COEF = st.one_of(st.just(0.0), _DECADES)
_LENGTH = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-6, 6))
_SPLIT = st.one_of(st.none(), st.floats(0.001, 0.999))
_EDGE = st.floats(-1e-3, 1e-3)


def _mixed(coefs) -> bool:
    tm, tp, mm, mp = coefs
    return tm + tp > 0.0 and mm + mp > 0.0


def _on_the_margin(tp: float, mm: float, mp: float, speed: float, edge: float) -> float:
    """``tau_minus`` for which the force at the lower breakpoint, per unit
    length, is ``(1 + edge)`` times the least one the node path takes."""
    k = (1.0 + balance._MARGIN) * balance._ACCEPT_RTOL * (1.0 + edge)
    return max((k * (tp + (mm + mp) * speed) - mm * speed * 0.5) / (1.0 - k), 0.0)


def _check_node(law: FrictionLaw, rate: float, length: float, split: float | None) -> None:
    pieces, l_total = _pieces(rate, length, split)
    node = engine._profile_nodes(law)
    assert _outcome(node, law, pieces, l_total) == _outcome(balance._solve, law, pieces, l_total)


@settings(max_examples=400)
@given(st.tuples(_COEF, _COEF, _COEF, _COEF).filter(_mixed), _RATE, _LENGTH, _SPLIT)
# fscale 6e-308: atol sits at its floor, and the solver takes the breakpoint
# 0.0 where the gap's root is 1.06e-9
@example(
    (2.924928e-317, 1.5791825473274757e-306, 1.18635735e-316, 4.203492e-317),
    -3.5230646275480155,
    0.039626285365041085,
    None,
)
# a rate whose fscale overflows
@example((1.0, 1.0, 1.0, 1.0), 1e308, 10.0, 0.5)
def test_the_node_path_is_the_solver_bit_for_bit(coefs, rate, length, split):
    _check_node(FrictionLaw(*coefs), rate, length, split)


@settings(max_examples=300)
@given(_COEF, _DECADES, _DECADES, _DECADES, _EDGE, _LENGTH, _SPLIT)
def test_a_breakpoint_force_on_the_margin_gives_the_solver_bit_for_bit(
    tp, mm_fraction, mp, speed, edge, length, split
):
    # the force at the lower breakpoint sits at 1 +- 1e-3 times the margin;
    # tau_minus is solved for it, and mu_minus is kept small enough for a
    # tau_minus >= 0 to reach it
    mm = min(mm_fraction * 1e-24, 1e-14) * mp
    tm = _on_the_margin(tp, mm, mp, speed, edge)
    law = FrictionLaw(tm, tp, mm, mp)
    for rate in (speed, -speed):
        _check_node(law, rate, length, split)
    # the mirror law puts the same force at the upper breakpoint
    _check_node(FrictionLaw(tp, tm, mp, mm), speed, length, split)


def test_the_margin_decides_which_nodes_skip_the_solver(monkeypatch):
    calls = []
    solve = balance._solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(balance, "_solve", counted)
    taken = {}
    for edge in (-1e-3, 1e-3):
        tm = _on_the_margin(0.5, 0.0, 2.0, 3.0, edge)
        law = FrictionLaw(tm, 0.5, 0.0, 2.0)
        del calls[:]
        _check_node(law, 3.0, 1.0, None)
        taken[edge] = len(calls) == 1  # _check_node's own reference solve only
    assert taken == {-1e-3: False, 1e-3: True}


def _leaves_no_cycles(op, *args) -> int:
    """Objects a second call of ``op`` leaves only the cycle collector can free."""
    op(*args)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        op(*args)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("cls", inputs.CLASSES)
def test_a_default_cycle_leaves_no_cyclic_garbage(cls):
    case = inputs.draw(1, "cycles", 0, cls, dircrawl)
    op = engine.verify if case.closed_form else engine.cycle_displacement
    assert _leaves_no_cycles(op, *case.build(dircrawl)) == 0


def test_adaptive_gauss_leaves_no_cyclic_garbage():
    def f(t: float):
        return math.sin(3.0 * t), None

    assert _leaves_no_cycles(analytic.adaptive_gauss, f, 0.0, 2.0, 1e-12) == 0
