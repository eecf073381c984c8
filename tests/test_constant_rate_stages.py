"""The default cycle integrator on constant-rate gaits against its oracle.

Square waves, two-segment paths and composite strides keep every piece rate
constant within a stage, so ``engine._constant_rate_stage`` integrates their
stages from switch times and closed forms, with one balance solve per
stretch of one structure.  The oracle is what profile gaits on mixed laws
still run: ``analytic.adaptive_gauss`` over ``balance._solve`` on every
corner span.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dircrawl
from dircrawl import analytic, balance, engine
from dircrawl.body import CompositeStride, SquareWave, TwoSegmentPath
from dircrawl.friction import FrictionLaw

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

CONSTANT_RATE = tuple(
    c for c in inputs.CLASSES if c.split("/")[0] in ("composite_stride", "stick_slip_wave", "sliding_wave")
)


def _oracle(law, gait, split: bool = False) -> tuple[list[float], dict[str, int]]:
    """Stage integrals and regime counts of adaptive_gauss over the solver.

    With ``split``, each stage is first cut at the switch times the new path
    computes, and each part must keep one sign pattern of the velocity at
    the piece ends at every node (the regime alone may change, where a
    sliding piece shrinks below the whole-body threshold): QK15
    cannot find a switch that no node straddles, such as a few thousandths
    of a stage where the solution slides before it sticks.  A part under
    1e-9 of its stage is a band where the force stays within the solver's
    tolerance of zero at a breakpoint; its structure flips with rounding,
    so QK15 cannot settle there, and it takes its middle value instead.
    """
    counts: dict[str, int] = {}
    keys: set = set()

    def velocity(t):
        x, regime, _, _, signs = balance._solve(law, *gait._pieces_at(t))
        counts[regime] = counts.get(regime, 0) + 1
        keys.add(signs)
        return x, (regime, signs)

    if not split:
        spans = analytic._corner_spans(gait.corner_times(), gait.period)
        return [analytic.adaptive_gauss(velocity, a, b, engine._CYCLE_TOL) for a, b in spans], counts
    stages = []
    for t0, t1, p0, p1 in gait._stages():
        model = engine._AffineStage(law, t0, t1, p0, p1)
        cuts = [t0, *(model.switches() if model.conds is not None else ()), t1]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if b - a < 1e-9 * (t1 - t0):
                total += velocity(0.5 * (a + b))[0] * (b - a)
                continue
            keys.clear()
            total += analytic.adaptive_gauss(velocity, a, b, engine._CYCLE_TOL)
            assert len(keys) == 1, (a, b, keys)
        stages.append(total)
    return stages, counts


def _assert_matches_oracle(law, gait, split: bool = False) -> engine.CycleReport:
    rep = engine.cycle_displacement(law, gait)
    stages, _ = _oracle(law, gait, split)
    got = [value for _, value in rep.contributions]
    assert len(got) == len(stages)
    for value, target in zip(got, stages):
        assert abs(value - target) <= engine._CYCLE_TOL * max(1.0, abs(target)), (value, target)
    assert sum(rep.meta["regime_counts"].values()) == rep.n_steps
    return rep


@pytest.mark.parametrize("cls", CONSTANT_RATE)
def test_stage_integrals_match_the_oracle_on_the_benchmark_inputs(cls):
    for seed in range(1, 41):
        law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
        _assert_matches_oracle(law, gait)


_LEN = st.floats(0.1, 3.0)
_COEF = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
_LAWS = st.tuples(_COEF, _COEF, _COEF, _COEF).filter(any).map(lambda c: FrictionLaw(*c))


@st.composite
def _paths(draw) -> TwoSegmentPath:
    """Closed paths of 1-4 vertices, each vertex possibly held for a while
    (a pause: every rate 0); one vertex held is a body at rest."""
    seq = []
    for _ in range(draw(st.integers(1, 4))):
        vertex = (draw(_LEN), draw(_LEN))
        seq += [vertex] * draw(st.integers(1, 2))
    seq.append(seq[0])
    times = [0.0]
    for _ in seq[1:]:
        times.append(times[-1] + draw(st.floats(0.05, 2.0)))
    return TwoSegmentPath(1.0, 0.5, tuple(times), tuple(v[0] for v in seq), tuple(v[1] for v in seq))


@settings(max_examples=150)
@given(law=_LAWS, path=_paths())
# a body at rest on a purely viscous law: its force scale is 0, so the stage
# model has no affine conditions (conds is None)
@example(law=FrictionLaw(0, 0, 0, 1), path=TwoSegmentPath(1.0, 0.5, (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)))
def test_two_segment_paths_match_the_oracle(law, path):
    _assert_matches_oracle(law, path, split=True)


def test_a_body_at_rest_takes_one_solve_per_stage():
    path = TwoSegmentPath(1.0, 0.5, (0.0, 1.0, 2.0), (0.5, 0.5, 0.5), (0.7, 0.7, 0.7))
    rep = _assert_matches_oracle(FrictionLaw(0.75, 0.25, 1.0, 0.5), path)
    assert rep.net_displacement == 0.0
    assert rep.meta["regime_counts"] == {balance.WHOLE_BODY_STICK: 2}


def _no_structure(monkeypatch) -> None:
    """Every stretch loses its structure (``found`` None)."""
    stretches = balance._AffineStage.stretches
    monkeypatch.setattr(
        balance._AffineStage, "stretches", lambda self: [[a, b, None] for a, b, _ in stretches(self)]
    )


def _gap_coefficients(at):
    """Every gap's coefficients become the constant ``at(breaks, k)``."""

    def patch(monkeypatch) -> None:
        gap = balance._AffineStage.gap

        def patched(self, k):
            abc = at(self.breaks, k)
            return (lambda t: abc), gap(self, k)[1]

        monkeypatch.setattr(balance._AffineStage, "gap", patched)

    return patch


# name: (class, patch, what _sub_interval gives up with); the coefficients
# (0, -1, c) have the root c, and (0, 1, 0) divide by zero in _falling_root
_FALLBACKS = {
    "no_structure": ("sliding_wave/mixed", _no_structure, None),
    "root_leaves_its_gap": (
        "composite_stride/newtonian",
        _gap_coefficients(lambda br, k: (0.0, -1.0, 2.0 * br[k] - br[k + 1])),
        None,
    ),
    "root_disagrees_with_the_solve": (
        "composite_stride/newtonian",
        _gap_coefficients(lambda br, k: (0.0, -1.0, 0.5 * (br[k] + br[k + 1]))),
        None,
    ),
    "root_divides_by_zero": (
        "composite_stride/dry",
        _gap_coefficients(lambda br, k: (0.0, 1.0, 0.0)),
        ZeroDivisionError,
    ),
}


@pytest.mark.parametrize("name", _FALLBACKS)
def test_a_stretch_the_model_cannot_integrate_falls_back_to_the_solver(name, monkeypatch):
    # each way _sub_interval gives up sends its stretch to adaptive_gauss
    # over balance._solve, whose every solve n_steps counts
    cls, patch, exit_ = _FALLBACKS[name]
    law, gait = inputs.draw(1, "cycles", 0, cls, dircrawl).build(dircrawl)
    patch(monkeypatch)
    exits, solves = [], []
    sub_interval, solve = engine._sub_interval, balance._solve

    def spied(*args):
        try:
            part = sub_interval(*args)
        except ZeroDivisionError:
            exits.append(ZeroDivisionError)
            raise
        if part is None:
            exits.append(None)
        return part

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(engine, "_sub_interval", spied)
    monkeypatch.setattr(balance, "_solve", counted)
    rep = engine.cycle_displacement(law, gait)
    assert exits and set(exits) == {exit_}
    # a solve at each stretch's middle, then at least one panel of 15 nodes
    assert rep.n_steps == len(solves) >= 16 * len(exits)
    stages, _ = _oracle(law, gait)
    for (_, value), target in zip(rep.contributions, stages, strict=True):
        assert abs(value - target) <= engine._CYCLE_TOL * max(1.0, abs(target)), (value, target)


@pytest.mark.parametrize("cls", CONSTANT_RATE)
def test_stage_hook_interpolates_the_pieces_of_every_time(cls):
    # between its ends, a stage's pieces are affine in t and equal to what
    # _pieces_at gives, up to rounding, once zero-length pieces are dropped
    for seed in range(1, 6):
        law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
        stages = gait._stages()
        assert [(t0, t1) for t0, t1, _, _ in stages] == analytic._corner_spans(
            gait.corner_times(), gait.period
        )
        for t0, t1, p0, p1 in stages:
            for th in (0.1, 0.5, 0.9):
                t = t0 + th * (t1 - t0)
                lerp = [
                    tuple(a + th * (b - a) for a, b in zip(q0, q1)) for q0, q1 in zip(p0, p1)
                ]
                got = [q for q in lerp if q[1] > q[0]]
                pieces, length = gait._pieces_at(t)
                assert len(got) == len(pieces)
                for q, ref in zip(got, pieces):
                    assert q == pytest.approx(ref, rel=1e-14, abs=1e-14 * length)


@pytest.mark.parametrize("cls", [c for c in CONSTANT_RATE if c.startswith("composite_stride")])
def test_stride_regime_column_names_the_oracles_regime(cls):
    # sweep's regime_or_admissibility column is the most frequent regime
    for seed in range(1, 41):
        law, gait = inputs.draw(seed, "cycles", 0, cls, dircrawl).build(dircrawl)
        counts = engine.cycle_displacement(law, gait).meta["regime_counts"]
        _, oracle_counts = _oracle(law, gait)
        assert max(counts, key=counts.get) == max(oracle_counts, key=oracle_counts.get)


class TestRatioMean:
    """``analytic._ratio_mean``, the mean of ``-c/b`` for affine ``c`` and ``b``."""

    @staticmethod
    def _quadrature(c0, c1, b0, b1) -> float:
        """QK15 panels on ``[0, 1]``, graded geometrically toward the end
        where ``|b|`` is smaller, where a nearby pole would fool the error
        estimate of a panel that spans it; ``s`` is the distance from that
        end, so that ``b`` is evaluated without cancellation."""
        if abs(b0) < abs(b1):
            c0, c1, b0, b1 = c1, c0, b1, b0

        def f(s):
            return -(c1 + s * (c0 - c1)) / (b1 + s * (b0 - b1)), None

        cuts = [0.0] + [2.0**-j for j in range(47, -1, -1)]
        return sum(analytic.adaptive_gauss(f, a, b, 1e-13) for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("u", [3e-5, -3e-5, 1e-9, -7e-12])
    def test_series_branch_matches_quadrature(self, u):
        c0, c1, b0, b1 = 0.7, -0.4, -1.3, -1.3 * (1.0 + u)
        mean = analytic._ratio_mean(-c0 / b0, -c1 / b1, b0, b1)
        assert abs(mean - self._quadrature(c0, c1, b0, b1)) <= 1e-15

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_pole_just_outside_either_end(self, gap):
        # c = -1 and b = 0 a fraction ``gap`` of the interval beyond its
        # end, then before its start: the mean of 1/b is -log(1 + 1/gap)
        exact = -math.log1p(1.0 / gap)
        for b0, b1 in ((-(1.0 + gap), -gap), (-gap, -(1.0 + gap))):
            assert analytic._ratio_mean(1.0 / b0, 1.0 / b1, b0, b1) == pytest.approx(
                exact, rel=1e-15
            )
            assert self._quadrature(-1.0, -1.0, b0, b1) == pytest.approx(exact, rel=1e-13)


# Time-rescaling invariance: a dry or a Newtonian law has no time scale, so
# a cycle's displacement does not depend on the wave speed or the period.
_RATE_FREE_LAWS = (FrictionLaw(0.75, 0.25, 0, 0), FrictionLaw(1.0, 0.0, 0, 0), FrictionLaw(0, 0, 4, 1))
_SCALED_GAITS = (
    lambda s: SquareWave(1.0, 0.2, 0.5, s),
    lambda s: SquareWave(1.0, 0.3, -0.4, 1.5 * s),
    lambda s: SquareWave(1.3, 0.9, 0.4, s),
    lambda s: CompositeStride(0.5, 0.25, 1.5, s),
    lambda s: CompositeStride(0.7, 0.3, 2.0, 0.75 * s),
)


@pytest.mark.parametrize("law", _RATE_FREE_LAWS)
@pytest.mark.parametrize("make", _SCALED_GAITS)
def test_cycle_displacement_ignores_the_time_scale(law, make):
    base = engine.cycle_displacement(law, make(1.0)).net_displacement
    for k in range(-8, 9):
        x = engine.cycle_displacement(law, make(2.0**k)).net_displacement
        assert abs(x - base) <= 1e-14 * max(1.0, abs(base)), k


def test_newtonian_wave_verifies_at_a_tiny_speed():
    # rates ~1e-10: a velocity scale floored at 1 accepts stuck pieces here
    # (residual 7.2e-6)
    assert engine.verify(FrictionLaw(0, 0, 1, 3), SquareWave(1.0, 0.3, 0.5, 1e-10)).passed


def test_exit_stage_ignores_a_tolerance_band():
    # rates ~0.0146: a velocity scale floored at 1 leaves the force at the
    # rest breakpoint within atol over the last 7e-9 s of the exit stage, a
    # band the stage model integrates as 0.0
    rep = engine.cycle_displacement(FrictionLaw(0, 0, 0, 1), SquareWave(1.0, 0.0625, -0.9375, 0.015625))
    exit_stage = dict(rep.contributions)["wave_exit"]  # -0.058593749897600036 with the floor
    assert abs(exit_stage - -0.05859375) <= engine._CYCLE_TOL  # relative to max(1, |stage|)
