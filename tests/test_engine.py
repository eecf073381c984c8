import importlib.util
import math
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import dircrawl
from dircrawl import analytic, balance, engine, midpoint
from dircrawl.analytic import (
    breather_cycle_displacement,
    newtonian_sliding_displacement,
    sliding_cycle_displacement,
    stickslip_delta_max,
    stickslip_max_displacement_dry,
)
from dircrawl.balance import solve_velocity
from dircrawl.body import Breather, CompositeStride, ConstantLength, SquareWave, TwoSegmentPath
from dircrawl.errors import DegenerateSubstrateError, StepLimitError, UnsupportedPairError
from dircrawl.friction import FrictionLaw, scale

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)

# Classes of the benchmark's cycles workload, with the switch-locating dry
# infeasible wave among them.
_RESIDUAL_CLASSES = (
    "breather/mixed",
    "composite_stride/mixed",
    "sliding_wave/dry",
    "sliding_wave/newtonian",
)


class TestSimulate:
    def test_dry_breather_cycle(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        traj = engine.simulate(law, Breather(ref_length=1.0, delta=1.0, period=1.0))
        assert abs(traj.net_displacement - 0.5) < 1e-6

    def test_symmetric_law_goes_nowhere(self):
        law = FrictionLaw(1.0, 1.0, 2.0, 2.0)
        traj = engine.simulate(law, Breather(ref_length=1.0, delta=0.8, period=1.0))
        assert abs(traj.net_displacement) <= 1e-9

    def test_stick_slip_wave(self):
        law = FrictionLaw(1.0, 1.0, 0, 0)
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        traj = engine.simulate(law, w, dt=w.period / 400)
        assert abs(traj.net_displacement - (-0.1)) < 1e-6
        # the left end only moves while the wave enters
        dx = np.diff(traj.x1)
        dts = np.diff(traj.times)
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        moving = np.abs(dx / dts) > 1e-12
        assert np.all(mids[moving] < 0.2 + 1e-9)
        rate = dx[moving] / dts[moving]
        assert np.allclose(rate, -0.5, atol=1e-12)

    def test_shape_consistency_every_sample(self):
        law = FrictionLaw(1.0, 0.5, 0.4, 0.2)
        w = SquareWave(ref_length=1.0, delta=0.3, epsilon=-0.4, speed=2.0)
        traj = engine.simulate(law, w, dt=w.period / 333)
        assert np.max(np.abs(traj.x2 - traj.x1 - traj.l)) <= 1e-12
        assert np.all(np.diff(traj.times) > 0.0)

    def test_periodic_additivity(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        one = engine.simulate(law, g, n_periods=1).net_displacement
        three = engine.simulate(law, g, n_periods=3).net_displacement
        assert abs(three - 3.0 * one) < 1e-12

    def test_length_returns_each_period(self):
        law = FrictionLaw(1, 0.5, 1, 0.5)
        g = Breather(ref_length=1.0, delta=0.5, period=1.0)
        traj = engine.simulate(law, g, n_periods=2, dt=1.0 / 100)
        assert abs(traj.l[0] - traj.l[100]) < 1e-12
        assert abs(traj.l[0] - traj.l[-1]) < 1e-12

    def test_convergence_with_dt(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        g = Breather(ref_length=1.0, delta=0.7, period=1.0)
        target = engine.cycle_displacement(law, g, dt=1.0 / 128).analytic_value
        errors = []
        for n in (125, 250, 500):
            traj = engine.simulate(law, g, dt=1.0 / n)
            errors.append(abs(traj.net_displacement - target))
        assert errors[2] < errors[0]
        order = math.log(errors[0] / errors[2]) / math.log(4.0)
        assert order >= 1.0

    def test_rate_independence_dry_and_newtonian(self):
        for law in (FrictionLaw(0.7, 0.3, 0, 0), FrictionLaw(0, 0, 4, 1)):
            d1 = engine.simulate(
                law, Breather(ref_length=1.0, delta=0.5, period=1.0)
            ).net_displacement
            d2 = engine.simulate(
                law, Breather(ref_length=1.0, delta=0.5, period=2.0)
            ).net_displacement
            assert abs(d1 - d2) <= 1e-9

    def test_rate_dependence_mixed_law(self):
        law = FrictionLaw(1.0, 0.5, 1.0, 0.5)
        d1 = engine.simulate(
            law, Breather(ref_length=1.0, delta=0.5, period=1.0)
        ).net_displacement
        d2 = engine.simulate(
            law, Breather(ref_length=1.0, delta=0.5, period=0.5)
        ).net_displacement
        assert abs(d1 - d2) > 1e-3

    def test_start_position_offsets_whole_trajectory(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        a = engine.simulate(law, g, dt=0.01)
        b = engine.simulate(law, g, dt=0.01, x0=5.0)
        assert np.allclose(b.x1 - a.x1, 5.0, atol=1e-12)

    def test_invalid_arguments(self):
        law = FrictionLaw(1, 1, 0, 0)
        g = Breather(ref_length=1.0, delta=0.5, period=1.0)
        with pytest.raises(ValueError):
            engine.simulate(law, g, n_periods=0)
        with pytest.raises(ValueError):
            engine.simulate(law, g, dt=-0.1)


class TestCycleDisplacement:
    def test_stride_negative_case(self):
        law = FrictionLaw(0.5, 0.5, 0, 0)
        g = CompositeStride(lam=0.1, delta=1.0, h=2.0)
        rep = engine.cycle_displacement(law, g)
        assert abs(rep.net_displacement - (-0.5)) < 1e-6
        assert rep.abs_residual <= 1e-6

    def test_sliding_wave_report(self):
        law = FrictionLaw(0, 0, 1, 1)
        g = SquareWave(ref_length=1.0, delta=0.25, epsilon=1.0, speed=1.0)
        rep = engine.cycle_displacement(law, g)
        assert rep.admissibility is not None and rep.admissibility.regime == "sliding"
        expected = newtonian_sliding_displacement(1.0, 1.0, 0.25, 1.0)
        assert abs(rep.net_displacement - expected) < 1e-6
        labels = [k for k, _ in rep.contributions]
        assert labels == ["wave_enter", "wave_inside", "wave_exit"]

    def test_infeasible_wave_still_runs(self):
        # sliding requires delta below 1/3 here; request a much wider wave
        law = FrictionLaw(1, 0, 1, 1)
        g = SquareWave(ref_length=1.0, delta=0.9, epsilon=1.0, speed=1.0)
        rep = engine.cycle_displacement(law, g, dt=g.period / 200)
        assert rep.admissibility.regime == "infeasible"
        assert rep.analytic_value is None
        assert math.isfinite(rep.net_displacement)
        assert "note" in rep.meta

    def test_mixed_rheology_stride_has_no_closed_form(self):
        law = FrictionLaw(1.0, 0.5, 1.0, 0.5)
        rep = engine.cycle_displacement(law, CompositeStride(lam=0.5, delta=0.5, h=2.0))
        assert rep.analytic_value is None
        assert "simulate" in rep.meta["note"]

    def test_generic_path_without_closed_form(self):
        law = FrictionLaw(1.0, 0.5, 0, 0)
        path = TwoSegmentPath(
            ref_length=1.0,
            split=0.5,
            times=(0.0, 0.4, 1.0),
            l1=(0.4, 0.6, 0.4),
            l2=(0.5, 0.55, 0.5),
        )
        rep = engine.cycle_displacement(law, path, dt=0.01)
        assert rep.analytic_value is None
        assert math.isfinite(rep.net_displacement)

    def test_bingham_breather_quadrature_reference(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        rep = engine.cycle_displacement(law, Breather(ref_length=1.0, delta=0.7, period=1.0))
        assert rep.analytic_value is not None
        assert rep.rel_residual < 1e-6


class TestDefaultCycleIntegrator:
    def test_report_counts_every_solve(self):
        cases = [
            (FrictionLaw(2.0, 1.0, 3.0, 1.0), Breather(ref_length=1.0, delta=0.7, period=1.0)),
            (FrictionLaw(0.5, 0.5, 0, 0), CompositeStride(lam=0.1, delta=1.0, h=2.0)),
            (FrictionLaw(0, 0, 1, 1), SquareWave(ref_length=1.0, delta=0.25, epsilon=1.0, speed=1.0)),
        ]
        for law, gait in cases:
            rep = engine.cycle_displacement(law, gait)
            assert rep.dt is None
            assert sum(rep.meta["regime_counts"].values()) == rep.n_steps
            assert 0 < rep.n_steps <= 250
            assert rep.rel_residual <= 1e-10

    def test_stick_switch_inside_a_stage_is_located(self):
        # an infeasible dry wave whose stuck part changes at ~75 % of the
        # wave_enter stage, between quadrature nodes; the reference is the
        # midpoint grid at period/1e5
        law = FrictionLaw(0.20889590966551302, 0.6026284597498451, 0, 0)
        g = SquareWave(
            ref_length=1.3126626747736565,
            delta=1.1694255394340776,
            epsilon=0.41516595258148437,
            speed=1.8385421628495706,
        )
        rep = engine.cycle_displacement(law, g)
        assert abs(rep.net_displacement - (-0.1862688612638633)) <= 2e-5

    def test_explicit_dt_selects_the_midpoint_grid(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        rep = engine.cycle_displacement(law, g, dt=g.period / 2000)
        assert rep.dt == g.period / 2000
        assert rep.n_steps == 2000
        assert rep.net_displacement == engine.simulate(law, g).net_displacement


    @pytest.mark.parametrize("cls", _RESIDUAL_CLASSES)
    def test_residual_max_is_the_largest_scalar_residual(self, monkeypatch, cls):
        # the default path solves from _pieces_at; record where, then re-solve
        # each time through the public, validating solve_velocity
        law, gait = inputs.draw(1, "cycles", 0, cls, dircrawl).build(dircrawl)
        pieces_at = type(gait)._pieces_at
        times = []

        def recording_pieces_at(self, t):
            times.append(t)
            return pieces_at(self, t)

        monkeypatch.setattr(type(gait), "_pieces_at", recording_pieces_at)
        rep = engine.cycle_displacement(law, gait)
        assert len(times) == rep.n_steps
        residuals = [solve_velocity(law, gait.shape_at(t), gait.rate_at(t)).residual for t in times]
        assert rep.meta["residual_max"] == max(residuals)

    @pytest.mark.parametrize("cls", _RESIDUAL_CLASSES)
    def test_midpoint_residual_max_is_the_largest_scalar_residual(self, cls):
        law, gait = inputs.draw(1, "cycles", 0, cls, dircrawl).build(dircrawl)
        dt = gait.period / 200
        rep = engine.cycle_displacement(law, gait, dt=dt)
        times, _ = midpoint._stage_grid(gait, dt)
        mids = 0.5 * (times[:-1] + times[1:])
        solves = [solve_velocity(law, gait.shape_at(t), gait.rate_at(t)) for t in mids.tolist()]
        assert rep.meta["residual_max"] == max(sol.residual for sol in solves)

    def test_solve_counts_on_the_benchmark_rotation(self):
        # profile gaits on dry and Newtonian laws: one solve per sign of the
        # profile rate, whatever the panels
        exact = {"breather/dry": 2, "breather/newtonian": 2}
        exact.update({"constant_length/dry": 2, "constant_length/newtonian": 2})
        # constant-rate gaits: one solve per stretch of one structure.  Strides
        # and stick-slip waves keep one per stage; the dry waves switch once
        # in their enter and exit stages, and every other wave sticks for a
        # few ulps of the stage at one end or both, where a stage's first
        # piece starts from or shrinks to zero length
        exact.update({f"composite_stride/{law}": 4 for law in inputs.LAWS})
        exact.update({"stick_slip_wave/dry": 3, "stick_slip_wave/mixed": 3})
        exact.update({"stick_slip_wave/newtonian": 4})
        exact.update({f"sliding_wave/{law}": 5 for law in inputs.LAWS})
        counts = []
        for seed in range(1, 11):
            for case in inputs.rotation(seed, "cycles", 0, dircrawl):
                rep = engine.cycle_displacement(*case.build(dircrawl))
                counts.append(rep.n_steps)
                if case.cls in exact:
                    assert rep.n_steps == exact[case.cls], (seed, case.cls)
        # the mixed-law profile gaits solve at every node: 50.8 and 39.6 per
        # op since a rejected panel first takes the 31 nested nodes
        assert sum(counts) / len(counts) <= 10


class TestStepLimit:
    def test_tiny_dt_rejected_before_any_grid(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        with pytest.raises(StepLimitError, match="dt=1e-300"):
            engine.cycle_displacement(law, g, dt=1e-300)
        with pytest.raises(StepLimitError, match="dt"):
            engine.simulate(law, g, dt=1e-300)
        with pytest.raises(StepLimitError, match="dt"):
            engine.simulate(law, g, n_periods=10**9)
        with pytest.raises(StepLimitError, match="dt"):
            engine.sweep(law, g, axes=[("gait.delta", (0.5, 1.0))], dt=1e-300)

    def test_more_periods_than_steps_rejected_before_the_step_bound(self):
        # 10**400 periods times a float overflows; a period takes a step at least
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        for n_periods in (10**400, 1_000_001):
            with pytest.raises(StepLimitError, match="n_periods"):
                engine.simulate(law, g, n_periods=n_periods)

    @pytest.mark.parametrize(
        "run",
        [
            # a stage's (b - a) * n overflows
            lambda law: engine.simulate(law, CompositeStride(1.0, 0.3, 1.5, 1e308)),
            lambda law: engine.cycle_displacement(law, CompositeStride(1.0, 0.3, 1.5, 1e308), dt=1e306),
            lambda law: engine.simulate(law, SquareWave(1.0, 0.3, 0.4, 1.11e-308)),
            # n_periods * period overflows
            lambda law: engine.simulate(law, CompositeStride(1.0, 0.3, 1.5, 1e308), 2, dt=1e308),
        ],
        ids=["simulate", "cycle", "wave", "periods"],
    )
    def test_grid_whose_times_overflow_refused_naming_the_period(self, run):
        # before any numpy overflow warning, which tier-1 makes an error
        message = r"^period=\S+ is too long: grid times overflow$"
        with pytest.raises(DegenerateSubstrateError, match=message):
            run(FrictionLaw(1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        with pytest.raises(ValueError, match="finite"):
            engine.simulate(law, g, dt=dt)
        with pytest.raises(ValueError, match="finite"):
            engine.cycle_displacement(law, g, dt=dt)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_verify_tolerance_rejected(self, tol):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        with pytest.raises(ValueError, match="tol"):
            engine.verify(law, Breather(ref_length=1.0, delta=1.0, period=1.0), tol=tol)


class TestInputContract:
    law = FrictionLaw(0.75, 0.25, 0, 0)
    gait = Breather(ref_length=1.0, delta=1.0, period=1.0)

    @pytest.mark.parametrize(
        "n_periods", [1.5, True, np.True_, np.False_, 2.0, np.float64(2.0), 0, -1, np.int64(0)]
    )
    def test_simulate_rejects_periods_that_are_not_a_positive_int(self, n_periods):
        message = f"n_periods must be a positive integer, got {n_periods!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            engine.simulate(self.law, self.gait, n_periods=n_periods)

    @pytest.mark.parametrize("count", [np.int64(2), np.uint8(2), np.int32(2)])
    def test_simulate_takes_a_numpy_integer_count(self, count):
        expected = engine.simulate(self.law, self.gait, n_periods=2, dt=0.01)
        traj = engine.simulate(self.law, self.gait, n_periods=count, dt=0.01)
        for name in ("times", "x1", "x2", "l"):
            assert getattr(traj, name).tobytes() == getattr(expected, name).tobytes(), name
        assert traj.regimes == expected.regimes
        assert traj.meta == expected.meta

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_simulate_rejects_a_non_finite_start(self, x0):
        with pytest.raises(ValueError, match="x0"):
            engine.simulate(self.law, self.gait, x0=x0)

    @pytest.mark.parametrize("dt", [-1.0, 0.0, math.nan])
    def test_sweep_rejects_dt_before_any_row(self, dt, monkeypatch):
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(engine, "cycle_displacement", no_row)
        with pytest.raises(ValueError, match="dt"):
            engine.sweep(self.law, self.gait, axes=[("gait.delta", (0.5, 1.0))], dt=dt)

    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_verify_rejects_a_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            engine.verify(self.law, self.gait, tol=tol)


class TestVerify:
    def test_breather_pass(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        rep = engine.verify(law, Breather(ref_length=1.0, delta=1.0, period=1.0), tol=1e-6)
        assert rep.passed

    def test_sliding_wave_includes_stage_checks(self):
        law = FrictionLaw(0, 0, 1, 1)
        g = SquareWave(ref_length=1.0, delta=0.25, epsilon=1.0, speed=1.0)
        rep = engine.verify(law, g, tol=1e-6)
        names = [c.name for c in rep.checks]
        assert "stage:wave_inside" in names
        assert "stage_identity_exit_minus_enter" in names
        assert rep.passed

    @pytest.mark.parametrize("dt", [None, 0.6666666666666666 / 400])
    def test_wave_whose_inside_stage_collapses(self, dt):
        # delta / c == L / c in floating point: the inside stage has no width
        law = FrictionLaw(0, 0, 1, 2)
        g = SquareWave(ref_length=1.0, delta=0.9999999999999999, epsilon=1.0, speed=3.0)
        assert g.corner_times()[1] == g.corner_times()[2]
        report = engine.cycle_displacement(law, g, dt=dt)
        assert [label for label, _ in report.contributions] == ["wave_enter", "wave_exit"]
        checks = {c.name: c for c in engine.verify(law, g, dt=dt).checks}
        assert checks["stage:wave_enter"].numeric == dict(report.contributions)["wave_enter"]
        assert checks["stage:wave_inside"].numeric == 0.0
        assert checks["stage:wave_exit"].numeric == dict(report.contributions)["wave_exit"]
        assert all(c.passed for c in checks.values())

    def test_stride_includes_edge_checks(self):
        law = FrictionLaw(0.6, 0.4, 0, 0)
        rep = engine.verify(law, CompositeStride(lam=0.5, delta=0.5, h=2.0), tol=1e-6)
        assert sum(c.name.startswith("edge:") for c in rep.checks) == 4
        assert rep.passed

    def test_negative_control_fails(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        # the midpoint grid at period/2000, tighter than its error
        rep = engine.verify(law, g, dt=g.period / 2000, tol=1e-12)
        assert not rep.passed
        assert rep.checks[0].residual > 0.0

    def test_unsupported_pair(self):
        law = FrictionLaw(1.0, 0.5, 1.0, 0.5)
        with pytest.raises(UnsupportedPairError):
            engine.verify(law, CompositeStride(lam=0.5, delta=0.5, h=2.0))


class TestSweep:
    def test_grid_order_and_values(self):
        law = FrictionLaw(1.0, 1.0, 0, 0)
        g = SquareWave(ref_length=1.0, delta=0.1, epsilon=0.5, speed=1.0)
        rows = engine.sweep(
            law,
            g,
            axes=[("gait.epsilon", (0.25, 0.5)), ("gait.delta", (0.05, 0.1))],
            dt=g.period / 100,
        )
        assert [r.index for r in rows] == [0, 1, 2, 3]
        assert rows[1].params == (("gait.epsilon", 0.25), ("gait.delta", 0.1))
        for r in rows:
            eps = dict(r.params)["gait.epsilon"]
            delta = dict(r.params)["gait.delta"]
            assert abs(r.report.net_displacement - (-eps * delta)) < 1e-6

    def test_errors_captured_per_row(self):
        law = FrictionLaw(1.0, 1.0, 0, 0)
        g = SquareWave(ref_length=1.0, delta=0.1, epsilon=0.5, speed=1.0)
        rows = engine.sweep(law, g, axes=[("gait.delta", (0.1, 2.0))])  # 2.0 > L invalid
        assert rows[0].error is None
        assert rows[1].report is None and "ValueError" in rows[1].error

    @pytest.mark.parametrize(
        "gait, key, field, values",
        [
            (ConstantLength(1.0, 0.5, 0.4, 0.3, 1.0), "l1_rest", "seg1_rest", (0.2, 0.3, 0.5)),
            (ConstantLength(1.0, 0.5, 0.4, 0.3, 1.0), "T", "period", (0.5, 2.0)),
            (SquareWave(1.0, 0.1, 0.5, 1.0), "c", "speed", (0.5, 2.0)),
        ],
    )
    def test_config_keys_as_gait_axes(self, gait, key, field, values):
        # every gait key of the CLI configuration names a sweep axis
        law = FrictionLaw(1.0, 0.5, 1.0, 0.5)
        rows = engine.sweep(law, gait, axes=[(f"gait.{key}", values)], dt=0.01)
        for row, value in zip(rows, values, strict=True):
            assert row.error is None
            expected = engine.cycle_displacement(law, replace(gait, **{field: value}), dt=0.01)
            assert row.report == expected

    def test_law_axis(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        rows = engine.sweep(law, g, axes=[("law.tau_minus", (0.6, 0.75))], dt=0.01)
        assert all(r.error is None for r in rows)
        assert rows[0].report.net_displacement != rows[1].report.net_displacement

    def test_empty_axes_single_row(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        rows = engine.sweep(law, g, axes=[], dt=0.01)
        assert len(rows) == 1 and rows[0].params == ()

    def test_bad_axis_path(self):
        law = FrictionLaw(1, 1, 0, 0)
        g = Breather(ref_length=1.0, delta=0.5, period=1.0)
        with pytest.raises(ValueError):
            engine.sweep(law, g, axes=[("delta", (0.1,))])

    @pytest.mark.parametrize(
        "path", ["gait.bogus", "gait.", "law.bogus", "law.delta", "body.delta"]
    )
    def test_unknown_axis_raises_before_any_row(self, path, monkeypatch):
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(engine, "cycle_displacement", no_row)
        law = FrictionLaw(1, 1, 0, 0)
        g = Breather(ref_length=1.0, delta=0.5, period=1.0)
        with pytest.raises(ValueError, match=re.escape(repr(path))):
            engine.sweep(law, g, axes=[("gait.delta", (0.1,)), (path, (0.1,))])

    def test_row_does_not_depend_on_axis_order(self):
        # delta = 1.5 is valid only together with L = 2.0: applied one axis
        # at a time, the order (delta, L) would reject the row
        law = FrictionLaw(1, 1, 0, 0)
        g = SquareWave(1.0, 0.2, -0.5, 1.5)
        axes = [("gait.delta", (1.5,)), ("gait.L", (2.0,))]
        forward = engine.sweep(law, g, axes=axes)
        backward = engine.sweep(law, g, axes=axes[::-1])
        assert forward[0].error is None and backward[0].error is None
        assert forward[0].report == backward[0].report
        expected = engine.cycle_displacement(law, SquareWave(2.0, 1.5, -0.5, 1.5))
        assert forward[0].report == expected


class TestFigureData:
    def test_fig6_spot_values(self):
        rows = engine.figure6_data(alphas=(0.5,), epsilons=(0.5, -0.5, 0.0))
        values = {eps: v for _, eps, v in rows}
        assert math.isclose(values[0.5], -0.2, rel_tol=1e-12)
        assert math.isclose(values[-0.5], 1.0 / 3.0, rel_tol=1e-12)
        assert values[0.0] == 0.0

    def test_fig6_default_three_curves(self):
        rows = engine.figure6_data()
        assert {a for a, _, _ in rows} == {0.25, 0.5, 0.75}
        for a, eps, v in rows:
            if eps > 0:
                assert v < 0.0
            elif eps < 0:
                assert v > 0.0

    def test_fig6_matches_formula(self):
        for a, eps, v in engine.figure6_data(alphas=(0.3, 0.8), epsilons=(0.7, -0.2)):
            assert math.isclose(v, stickslip_max_displacement_dry(a, eps, 1.0), rel_tol=1e-14)

    def test_fig7_default_five_curves(self):
        rows = engine.figure7_data()
        assert len({b2 for _, b2, _, _ in rows}) == 5
        for b, b2, eps, v in rows:
            if b >= 1.0 and eps > 0.0:
                assert v > 0.0

    def test_fig7_collapse_limit(self):
        rows = engine.figure7_data(epsilons=(-0.9999,))
        for _, _, _, v in rows:
            assert abs(v - 0.25) < 1e-3

    def test_fig7_ratio_below_one_dips_negative(self):
        rows = engine.figure7_data(
            betas=(0.5,), epsilons=tuple(k / 20 for k in range(1, 20))
        )
        assert min(v for _, _, _, v in rows) < 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            engine.figure6_data(epsilons=(-1.5,))
        with pytest.raises(ValueError):
            engine.figure7_data(delta_over_length=1.5)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # alpha is checked even where epsilon = 0 tabulates no formula
            ({"alphas": (5.0, math.nan), "epsilons": (0.0,)}, "alpha must lie in .* got 5.0"),
            ({"alphas": (0.5, math.nan), "epsilons": (0.0,)}, "alpha must lie in .* got nan"),
            ({"alphas": (math.inf,), "epsilons": (0.0,)}, "alpha must lie in .* got inf"),
            ({"alphas": (0.0,), "epsilons": (0.0,)}, "alpha must lie in .* got 0.0"),
            ({"epsilons": (0.5, math.nan)}, "epsilon must be finite"),
            ({"epsilons": (math.inf,)}, "epsilon must be finite"),
        ],
    )
    def test_fig6_rejects_non_finite_or_non_positive_inputs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            engine.figure6_data(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"epsilons": (math.inf,)}, "epsilon must be finite"),
            ({"epsilons": (0.5, math.nan)}, "epsilon must be finite"),
            ({"epsilons": (-1.0,)}, "epsilon must be finite and exceed -1"),
            ({"betas": (math.inf,)}, "beta must be positive"),
            ({"betas": (math.nan,)}, "beta must be positive"),
            ({"betas": (0.0,)}, "beta must be positive"),
            ({"betas": (1e200,)}, "beta must be positive with a finite square"),
            # the sliding formula leaves the float range: a NaN total ...
            ({"betas": (0.5,), "epsilons": (1e200,)}, r"epsilon=1e\+200 is out of range"),
            ({"betas": (0.5,), "epsilons": (1e300,)}, r"epsilon=1e\+300 is out of range"),
            # ... and u * u overflowing, which zeroed the exit term (5.0e152
            # where the value is 1.0e153)
            ({"betas": (10.0,), "epsilons": (1e153,)}, r"epsilon=1e\+153 is out of range"),
        ],
    )
    def test_fig7_rejects_non_finite_or_out_of_range_inputs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            engine.figure7_data(**kwargs)

    def test_fig7_large_finite_amplitude_still_tabulated(self):
        [(_, _, _, value)] = engine.figure7_data(betas=(0.5,), epsilons=(1e150,))
        assert value == 1e150

    def test_default_rows_match_the_exact_solver(self):
        # Each default row with epsilon != 0 is the per-cycle displacement of
        # a square wave, which the stage-wise integrator reproduces: fig6 on a
        # dry law at the widest stick-slip wave, fig7 on a Newtonian law at
        # delta / L = 0.25 (both with L = 1).
        cases = []
        for a, e, value in engine.figure6_data():
            law = FrictionLaw(a, 1.0 - a, 0.0, 0.0)
            if e != 0.0:
                wave = SquareWave(1.0, stickslip_delta_max(law, e, 1.0, 1.0), e, 1.0)
                cases.append((law, wave, value))
        for b, _, e, value in engine.figure7_data():
            if e != 0.0:
                law = FrictionLaw(0.0, 0.0, b * b, 1.0)
                cases.append((law, SquareWave(1.0, 0.25, e, 1.0), value))
        assert len(cases) == 3 * 98 + 5 * 98
        for law, wave, value in cases:
            x = engine.cycle_displacement(law, wave).net_displacement
            assert abs(x - value) <= 1e-6 * max(1.0, abs(value)), (law, wave, x, value)


class TestScaleInvariance:
    def test_simulated_displacement_invariant_under_law_scaling(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        g = Breather(ref_length=1.0, delta=0.7, period=1.0)
        d1 = engine.simulate(law, g, dt=0.01).net_displacement
        d2 = engine.simulate(scale(law, 7.3), g, dt=0.01).net_displacement
        assert math.isclose(d1, d2, rel_tol=1e-12)


class TestConstantLengthReduction:
    def test_tracks_first_segment_breather(self):
        for law in (
            FrictionLaw(0.75, 0.25, 0, 0),
            FrictionLaw(0, 0, 4, 1),
            FrictionLaw(2, 1, 3, 1),
        ):
            cl = ConstantLength(ref_length=1.0, split=0.5, seg1_rest=0.4, delta=0.3, period=1.0)
            br = Breather(ref_length=0.4, delta=0.3, period=1.0)
            t1 = engine.simulate(law, cl, dt=1.0 / 200)
            t2 = engine.simulate(law, br, dt=1.0 / 200)
            assert np.max(np.abs(t1.x1 - t2.x1)) <= 1e-9


class TestCustomProfileGait:
    def test_engine_handles_profile_without_corner_hints(self):
        # a skewed two-hump profile; sign changes discovered by scanning
        law = FrictionLaw(0.75, 0.25, 0, 0)

        def profile(t):
            return 1.0 + 0.3 * math.sin(math.pi * t) ** 2 + 0.2 * math.sin(2 * math.pi * t) ** 2

        def profile_rate(t):
            return 0.3 * math.pi * math.sin(2 * math.pi * t) + 0.4 * math.pi * math.sin(
                4 * math.pi * t
            )

        gait = Breather(
            ref_length=1.0, delta=0.3, period=1.0, profile=profile, profile_rate=profile_rate
        )
        rep = engine.cycle_displacement(law, gait, dt=1.0 / 4000)
        assert rep.analytic_value is not None
        assert rep.rel_residual < 1e-5

    def test_verify_splits_at_a_turning_point_near_the_start(self):
        # The rate changes sign at t ~ 0.011, between the first Gauss nodes
        # of the whole period: unless the stage-wise integrator splits there,
        # it misses the sign change (rel. residual 2.7e-6).
        law = FrictionLaw(1.117181065183956, 0.238563090350834, 0, 0)
        period, delta, phase = 7.273878794699237, -0.18132132766060885, 0.49847647904585

        def profile(t):
            return 1.0 + delta * math.sin(math.pi * (t / period + phase)) ** 2

        def profile_rate(t):
            return delta * (math.pi / period) * math.sin(2.0 * math.pi * (t / period + phase))

        gait = Breather(1.0, delta, period, profile=profile, profile_rate=profile_rate)
        assert 0.011 < gait.corner_times()[1] < 0.012
        report = engine.verify(law, gait)
        assert report.passed
        assert report.checks[0].residual <= 1e-12

    @pytest.mark.parametrize("law", [FrictionLaw(0.75, 0.25, 0, 0), FrictionLaw(1, 0.5, 1, 0.5)])
    def test_nan_profile_rate_is_refused_naming_it(self, law):
        # it used to reach the solver and raise "no velocity balances the
        # force"; each integrator now raises at the first time it reads the
        # rate, as for a NaN length
        gait = Breather(
            1.0,
            0.0,
            1.0,
            profile=lambda t: 1.0,
            profile_rate=lambda t: math.nan,
            corners=(0.0, 1.0),
        )
        message = r"profile_rate produced nan at t=0\.\d+$"
        with pytest.raises(ValueError, match=message):
            engine.cycle_displacement(law, gait)
        with pytest.raises(ValueError, match=message):
            engine.cycle_displacement(law, gait, dt=0.25)
        with pytest.raises(ValueError, match=message):
            engine.simulate(law, gait)

    def test_turning_point_on_a_scan_node_and_none_at_the_wrap(self):
        # The rate 0.5 - t is zero exactly on the scan node t = 0.5, and read
        # modulo the period it jumps from -0.5 back to 0.5 at t = 1, which is
        # no turning point.  The scan used to miss the first and find the
        # second: corners (0, 1, 1), and a closed form of 0 against 0.0625.
        gait = Breather(
            1.0,
            0.0,
            1.0,
            profile=lambda t: 1.0 + 0.5 * t - 0.5 * t * t,
            profile_rate=lambda t: 0.5 - t,
        )
        assert gait.corner_times() == (0.0, 0.5, 1.0)
        report = engine.verify(FrictionLaw(0.75, 0.25, 0, 0), gait)
        assert report.passed
        assert report.checks[0].analytic == pytest.approx(0.0625, rel=1e-12)


class TestWaveConvergence:
    def test_sliding_wave_error_shrinks_with_dt(self):
        law = FrictionLaw(0, 0, 1, 1)
        g = SquareWave(ref_length=1.0, delta=0.25, epsilon=1.0, speed=1.0)
        target = sliding_cycle_displacement(law, 1.0, 1.0, 0.25, 1.0).total
        errors = []
        for n in (50, 100, 200):
            traj = engine.simulate(law, g, dt=g.period / n)
            errors.append(abs(traj.net_displacement - target))
        assert errors[2] < errors[0]
        order = math.log(errors[0] / errors[2]) / math.log(4.0)
        assert order >= 1.0


class TestScaledUnits:
    def test_wave_in_non_unit_units(self):
        # nothing in the model assumes unit length or unit speed
        law = FrictionLaw(0.4, 0.6, 0.0, 0.0)
        L, c, eps = 1.7, 2.3, 0.8
        dmax = stickslip_delta_max(law, eps, c, L)
        gait = SquareWave(ref_length=L, delta=0.9 * dmax, epsilon=eps, speed=c)
        rep = engine.cycle_displacement(law, gait, dt=gait.period / 64)
        assert abs(rep.net_displacement - (-eps * 0.9 * dmax)) < 1e-9

    def test_large_amplitude_extension_wave(self):
        law = FrictionLaw(0.5, 0.5, 0.0, 0.0)
        eps = 1.5
        dmax = stickslip_delta_max(law, eps, 1.0, 1.0)
        gait = SquareWave(ref_length=1.0, delta=dmax, epsilon=eps, speed=1.0)
        rep = engine.cycle_displacement(law, gait, dt=gait.period / 64)
        assert abs(rep.net_displacement - stickslip_max_displacement_dry(0.5, eps, 1.0)) < 1e-9

    def test_sliding_wave_speed_invariance_newtonian(self):
        # with no yield forces the per-cycle displacement cannot depend on speed
        law = FrictionLaw(0, 0, 2.0, 1.0)
        vals = []
        for c in (0.5, 1.0, 4.0):
            vals.append(
                sliding_cycle_displacement(law, 0.7, c, 0.3, 1.0).total
            )
        assert max(vals) - min(vals) < 1e-14


class TestEmptyGrid:
    def test_axis_with_no_values_yields_empty_table(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        assert engine.sweep(law, g, axes=[("gait.delta", ())]) == []


class TestRandomizedWaveOracle:
    def test_random_sliding_configurations_match_closed_form(self):
        import random as _random

        from dircrawl.analytic import sliding_delta_max, wave_admissibility

        rng = _random.Random(90125)
        checked = 0
        while checked < 20:
            extension = rng.random() < 0.5
            eps = rng.uniform(0.1, 0.9) * (1.0 if extension else -1.0)
            if extension:
                law = FrictionLaw(rng.uniform(0.0, 1.0), 0.0, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            else:
                law = FrictionLaw(0.0, rng.uniform(0.0, 1.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            c = rng.uniform(0.5, 2.0)
            bound = sliding_delta_max(law, eps, c, 1.0)
            if bound < 0.02:
                continue
            delta = rng.uniform(0.2, 0.8) * bound
            assert wave_admissibility(law, eps, c, delta, 1.0).regime == "sliding"
            expected = sliding_cycle_displacement(law, eps, c, delta, 1.0).total
            gait = SquareWave(ref_length=1.0, delta=delta, epsilon=eps, speed=c)
            traj = engine.simulate(law, gait, dt=gait.period / 800)
            assert abs(traj.net_displacement - expected) <= 1e-6 * max(1.0, abs(expected))
            checked += 1

    def test_random_stick_slip_configurations_match_closed_form(self):
        import random as _random

        rng = _random.Random(5150)
        checked = 0
        while checked < 20:
            eps = rng.uniform(0.1, 0.9) * rng.choice([-1.0, 1.0])
            law = FrictionLaw(
                rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0),
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
            )
            c = rng.uniform(0.5, 2.0)
            dmax = stickslip_delta_max(law, eps, c, 1.0)
            if dmax < 0.02:
                continue
            delta = rng.uniform(0.2, 1.0) * dmax
            gait = SquareWave(ref_length=1.0, delta=delta, epsilon=eps, speed=c)
            traj = engine.simulate(law, gait, dt=gait.period / 64)
            assert abs(traj.net_displacement - (-eps * delta)) <= 1e-9
            checked += 1


class TestVerifyAcrossFamilies:
    def test_random_supported_pairs_verify(self):
        import random as _random

        rng = _random.Random(2112)
        for _ in range(4):
            bing = FrictionLaw(
                rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2)
            )
            assert engine.verify(
                bing, Breather(ref_length=1.0, delta=rng.uniform(0.2, 0.8), period=1.0)
            ).passed
            assert engine.verify(
                bing,
                ConstantLength(
                    ref_length=1.0, split=0.5, seg1_rest=0.4, delta=0.2, period=1.0
                ),
            ).passed
            dry = FrictionLaw(rng.uniform(0.1, 2), rng.uniform(0.1, 2), 0, 0)
            assert engine.verify(
                dry, CompositeStride(lam=rng.uniform(0.2, 1.0), delta=rng.uniform(0.2, 1.0), h=2.0)
            ).passed


class TestNearDegenerateWaveWidth:
    def test_wave_nearly_as_wide_as_body(self):
        law = FrictionLaw(0, 0, 2.0, 1.0)  # Newtonian: any width below L slides
        gait = SquareWave(ref_length=1.0, delta=0.999, epsilon=0.5, speed=1.0)
        expected = sliding_cycle_displacement(law, 0.5, 1.0, 0.999, 1.0).total
        traj = engine.simulate(law, gait, dt=gait.period / 800)
        assert abs(traj.net_displacement - expected) <= 1e-6 * max(1.0, abs(expected))


class TestContractionStickSlip:
    def test_left_end_advances_only_while_wave_enters(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)
        eps = -0.5
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=eps, speed=1.0)
        traj = engine.simulate(law, w, dt=w.period / 400)
        dx = np.diff(traj.x1)
        dts = np.diff(traj.times)
        mids = 0.5 * (traj.times[:-1] + traj.times[1:])
        moving = np.abs(dx / dts) > 1e-12
        assert np.all(mids[moving] < 0.2 + 1e-9)
        assert np.allclose(dx[moving] / dts[moving], -eps, atol=1e-12)  # advances
        assert abs(traj.net_displacement - 0.1) < 1e-9


class TestQuadratureEnds:
    """Valid finite inputs on which the stage quadrature once bisected for
    minutes: rounding noise above the halved tolerance.  Each now ends
    within the roundoff floor, or takes no quadrature."""

    _WAVE = (
        FrictionLaw(0.0, 0.0, 0.00018866186498003342, 157.14419170756986),
        SquareWave(1.1489763556450128e47, 7.850980785793529e46, -0.06540698360063446,
                   0.17948090247364346),
    )
    _CRAWLER = (
        FrictionLaw(0.21575675093424648, 0.012476091315653297, 0.0, 1.2511143662935717e-46),
        ConstantLength(1.112923033649893e112, 8.427881197470771e111, 9.710837291971716e111,
                       3.4305174716382735e49, 22.158276859990146),
    )
    _PATH = (
        FrictionLaw(1.6103380928135822, 11.86880718981462, 12.80343468216912,
                    2.0684963240096477e-248),
        TwoSegmentPath(
            2.833294107905351e-48, 2.6897775842482797e-48,
            (0.0, 2.9954615176409873e-09, 5.9909230352819745e-09),
            (0.3554148601609768, 4.804291435865886e-285, 0.3554148601609768),
            (44.48592935306706, 0.0034274577159614877, 44.48592935306706),
        ),
    )

    @pytest.mark.parametrize("case", ["wave", "crawler"])
    def test_cycle_matches_its_closed_form(self, case):
        law, gait = {"wave": self._WAVE, "crawler": self._CRAWLER}[case]
        t0 = time.perf_counter()
        report = engine.cycle_displacement(law, gait)
        assert time.perf_counter() - t0 <= 2.0
        assert math.isfinite(report.net_displacement)
        assert report.rel_residual <= 5e-7

    # QUADPACK warns that it reaches its roundoff floor on this noisy velocity
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_noisy_path_is_integrated_in_closed_form(self, monkeypatch):
        # the gap root's quadrature hit the panel cap on rounding noise; the
        # closed form takes no panel, and each stage is the sum of its
        # stretches, every one against QUADPACK over the solver (the
        # exit stage's 1e-18 s band of one velocity, which QUADPACK cannot
        # see on the whole stage, included)
        law, gait = self._PATH
        calls = []
        monkeypatch.setattr(analytic, "adaptive_gauss", lambda *args: calls.append(args))
        t0 = time.perf_counter()
        report = engine.cycle_displacement(law, gait)
        assert time.perf_counter() - t0 <= 2.0
        assert calls == []

        def velocity(t: float) -> float:
            return balance._solve(law, *gait._pieces_at(t))[0]

        for (_, value), (a, b, p0, p1) in zip(report.contributions, gait._stages(), strict=True):
            stretches = balance._AffineStage(law, a, b, p0, p1).stretches()
            ref = sum(quad(velocity, ta, tb, epsabs=0.0, epsrel=1e-13, limit=200)[0] for ta, tb, _ in stretches)
            assert abs(value - ref) <= engine._CYCLE_TOL * max(1.0, abs(ref)), (value, ref)

    def test_mixed_law_closed_form(self):
        # the numeric cycle gives the same value, -delta to the last digit
        law = FrictionLaw(4.0518886347503145e81, 0.004387196184849628, 0.0, 0.01767026899884136)
        gait = ConstantLength(4.4627618067239796e114, 1.3884449687629416e114,
                              1.6262750364375248e114, 5.388666356227551e111, 4.41731009718889e-71)
        t0 = time.perf_counter()
        value = breather_cycle_displacement(
            law, gait.seg1_length_at, gait.seg1_rate_at, gait.period, corners=gait.corner_times()
        )
        assert time.perf_counter() - t0 <= 2.0
        assert math.isclose(value, -gait.delta, rel_tol=5e-7)


class TestSingularProfile:
    """l = 1 + sqrt(t (1 - t)) / 2 on a mixed law: the velocity grows as
    1 / sqrt(t) at both corners.  The panel against a corner is accepted
    only if its error is within the roundoff floor or the stage's bound,
    which it never is, so the default cycle tolerance raises rather than
    returning a value 4e-7 off the integral."""

    law = FrictionLaw(1.0, 0.5, 1.0, 0.5)

    @staticmethod
    def profile(t):
        return 1.0 + 0.5 * math.sqrt(t * (1.0 - t))

    @staticmethod
    def rate(t):
        return 0.25 * (1.0 - 2.0 * t) / math.sqrt(t * (1.0 - t))

    def test_closed_form_raises_at_the_cycle_tolerance(self):
        with pytest.raises(DegenerateSubstrateError, match="does not settle"):
            breather_cycle_displacement(
                self.law, self.profile, self.rate, 1.0, corners=(0.0, 0.5, 1.0),
                tol=engine._CYCLE_TOL,
            )

    def test_cycle_raises_on_the_default_path(self):
        gait = Breather(1.0, 0.0, 1.0, profile=self.profile, profile_rate=self.rate,
                        corners=(0.0, 0.5, 1.0))
        with pytest.raises(DegenerateSubstrateError, match="does not settle"):
            engine.cycle_displacement(self.law, gait)
