import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dircrawl import midpoint
from dircrawl.analytic import breather_roots, breather_velocity, stickslip_delta_max
from dircrawl.balance import (
    SLIDING,
    STICK_SLIP,
    WHOLE_BODY_STICK,
    solve_velocity,
    total_force,
)
from dircrawl.body import Breather, PiecewiseAffineShape, ShapeRate, SquareWave
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw, scale
from oracles import bisect_velocity, breather_shape_rate, quad_force, random_law


class TestTotalForce:
    def test_symmetric_breather_balances_at_half_rate(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        fv = total_force(law, shape, rate, -0.5)
        assert fv.is_point and abs(fv.value) < 1e-15

    def test_static_body_gives_yield_interval(self):
        law = FrictionLaw(1.0, 0.5, 2.0, 3.0)
        shape = PiecewiseAffineShape((0.0, 1.0), (0.0, 1.3))
        rate = ShapeRate((0.0, 1.0), ((0.0, 0.0),))
        fv = total_force(law, shape, rate, 0.0)
        assert math.isclose(fv.lo, -0.5 * 1.3, rel_tol=1e-15)
        assert math.isclose(fv.hi, 1.0 * 1.3, rel_tol=1e-15)

    def test_dry_breather_root(self):
        law = FrictionLaw(0.75, 0.25, 0.0, 0.0)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        assert abs(total_force(law, shape, rate, -0.25).value) < 1e-15

    def test_matches_pointwise_quadrature(self):
        rng = random.Random(42)
        for _ in range(25):
            law = random_law(rng)
            nodes = sorted({0.0, rng.uniform(0.2, 0.8), 1.0})
            arcs = [0.0]
            for i in range(len(nodes) - 1):
                arcs.append(arcs[-1] + rng.uniform(0.2, 1.5) * (nodes[i + 1] - nodes[i]))
            shape = PiecewiseAffineShape(tuple(nodes), tuple(arcs))
            pairs = tuple(
                (rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(len(nodes) - 1)
            )
            rate = ShapeRate(tuple(nodes), pairs)
            x = rng.uniform(-2, 2)
            fv = total_force(law, shape, rate, x)
            if not fv.is_point:
                continue
            approx = quad_force(law, shape, rate, x, n=6000)
            assert math.isclose(fv.value, approx, rel_tol=0.0, abs_tol=5e-3)

    def test_monotone_in_velocity(self):
        rng = random.Random(99)
        shape, rate = breather_shape_rate(l=1.2, ldot=0.7)
        for _ in range(200):
            law = random_law(rng)
            xa, xb = sorted((rng.uniform(-3, 3), rng.uniform(-3, 3)))
            if xa == xb:
                continue
            fa = total_force(law, shape, rate, xa)
            fb = total_force(law, shape, rate, xb)
            assert fa.lo >= fb.hi - 1e-12

    def test_never_reads_position(self):
        # identical inputs give identical outputs; there is no position input
        law = FrictionLaw(1, 0.5, 2, 3)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        assert total_force(law, shape, rate, -0.3) == total_force(law, shape, rate, -0.3)


class TestSolveVelocity:
    def test_dry_breather(self):
        law = FrictionLaw(0.75, 0.25, 0.0, 0.0)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        sol = solve_velocity(law, shape, rate)
        assert math.isclose(sol.x1dot, -0.25, rel_tol=1e-12)
        assert sol.regime == SLIDING

    def test_bingham_matches_analytic(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        sol = solve_velocity(law, shape, rate)
        expected = (4.0 - math.sqrt(22.0)) / 2.0
        assert math.isclose(sol.x1dot, expected, rel_tol=1e-12)
        assert math.isclose(sol.x1dot, breather_velocity(law, 1.0), rel_tol=1e-10)

    def test_zero_rate_whole_body_stick(self):
        law = FrictionLaw(1.0, 0.5, 0.0, 0.0)
        shape = PiecewiseAffineShape((0.0, 1.0), (0.0, 1.0))
        rate = ShapeRate((0.0, 1.0), ((0.0, 0.0),))
        sol = solve_velocity(law, shape, rate)
        assert sol.x1dot == 0.0
        assert sol.regime == WHOLE_BODY_STICK
        assert sol.stick_intervals == ((0.0, 1.0),)

    def test_stick_slip_wave_inside_stage(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        t = 0.5  # wave fully inside
        sol = solve_velocity(law, w.shape_at(t), w.rate_at(t))
        assert sol.x1dot == 0.0
        assert sol.regime == STICK_SLIP
        # both undeformed regions are at rest
        assert len(sol.stick_intervals) == 2

    def test_stick_consistency(self):
        law = FrictionLaw(1.0, 1.0, 0.3, 0.2)
        w = SquareWave(ref_length=1.0, delta=0.1, epsilon=0.5, speed=1.0)
        for t in (0.05, 0.4, 1.05):
            shape, rate = w.shape_at(t), w.rate_at(t)
            sol = solve_velocity(law, shape, rate)
            if sol.regime != SLIDING:
                assert total_force(law, shape, rate, sol.x1dot).contains(0.0)

    def test_entering_stage_slips_at_wave_speed(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        sol = solve_velocity(law, w.shape_at(0.1), w.rate_at(0.1))
        assert math.isclose(sol.x1dot, -0.5, rel_tol=1e-12)
        assert sol.regime == STICK_SLIP

    def test_sliding_above_width_bound(self):
        law = FrictionLaw(1.0, 1.0, 0.5, 0.5)
        dmax = stickslip_delta_max(law, 0.5, 1.0, 1.0)
        w = SquareWave(ref_length=1.0, delta=min(0.95, dmax * 1.2), epsilon=0.5, speed=1.0)
        sol = solve_velocity(law, w.shape_at(0.5), w.rate_at(0.5))
        assert sol.x1dot > 0.0  # the stick Ansatz fails and the body slides

    def test_oracle_equivalence_random_breathers(self):
        rng = random.Random(2718)
        for _ in range(300):
            law = random_law(rng)
            ldot = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)
            l = rng.uniform(0.5, 2.0)
            shape, rate = breather_shape_rate(l=l, ldot=ldot)
            sol = solve_velocity(law, shape, rate)
            ana = breather_velocity(law, ldot)
            assert abs(sol.x1dot - ana) <= 1e-10 * max(1.0, abs(ana))
            assert sol.residual <= 1e-10 * max(1.0, law.tau_minus + law.tau_plus)

    def test_bisection_oracle_agreement(self):
        rng = random.Random(31415)
        for _ in range(50):
            law = random_law(rng, min_mu_gap=1e-3)
            shape, rate = breather_shape_rate(l=1.0, ldot=rng.choice([-1.0, 1.0]))
            sol = solve_velocity(law, shape, rate)
            ref = bisect_velocity(law, shape, rate)
            assert abs(sol.x1dot - ref) <= 1e-10

    def test_scale_invariance_exact_for_binary_factors(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        base = solve_velocity(law, shape, rate).x1dot
        for k in (0.5, 2.0, 4.0, 8.0):
            assert solve_velocity(scale(law, k), shape, rate).x1dot == base

    def test_scale_invariance_general_factor(self):
        rng = random.Random(5)
        shape, rate = breather_shape_rate(l=1.0, ldot=-0.7)
        for _ in range(50):
            law = random_law(rng)
            k = rng.uniform(1e-2, 1e2)
            a = solve_velocity(law, shape, rate).x1dot
            b = solve_velocity(scale(law, k), shape, rate).x1dot
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)

    def test_one_sided_frictionless_boundary_solution(self):
        # backward direction frictionless: all extension is shed leftward,
        # the right end stays put, and the balance holds with zero force.
        law = FrictionLaw(0.0, 1.0, 0.0, 0.5)
        shape, rate = breather_shape_rate(l=1.0, ldot=1.0)
        sol = solve_velocity(law, shape, rate)
        assert math.isclose(sol.x1dot, -1.0, rel_tol=1e-12)
        assert math.isclose(breather_velocity(law, 1.0), -1.0, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "law, ldot",
        [
            (
                FrictionLaw(4.470877581627024e56, 0.0, 0.0, 6.027151618559045e277),
                -9.121782968964876e139,
            ),
            (FrictionLaw(3.03e-184, 7.21e245, 1.59e285, 0.792), 1e100),
        ],
    )
    def test_overflowing_force_scale_is_refused_by_both_solvers(self, law, ldot):
        # mu * |ldot| overflows, so the residual bound is infinite and would
        # accept x1dot = 0.0 with the whole yield force unbalanced
        with pytest.raises(DegenerateSubstrateError, match="force scale overflows"):
            solve_velocity(law, *breather_shape_rate(l=1.0, ldot=ldot))
        # the midpoint rows of a breather whose length holds at 1.0 with this rate
        gait = Breather(1.0, 0.0, 1.0, profile=lambda t: 1.0, profile_rate=lambda t: ldot)
        with pytest.raises(DegenerateSubstrateError, match="force scale overflows"):
            midpoint._kernel(law, gait, np.array([0.25, 0.25, 0.5, 0.5]), None)

    def test_node_set_mismatch(self):
        law = FrictionLaw(1, 1, 1, 1)
        shape = PiecewiseAffineShape((0.0, 1.0), (0.0, 1.0))
        rate = ShapeRate((0.0, 0.9), ((0.0, 1.0),))
        with pytest.raises(ValueError):
            solve_velocity(law, shape, rate)

    def test_solution_independent_of_node_refinement(self):
        # splitting the breather into two collinear pieces must not change anything
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        coarse = breather_shape_rate(l=1.0, ldot=1.0)
        fine_shape = PiecewiseAffineShape((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
        fine_rate = ShapeRate((0.0, 0.5, 1.0), ((0.0, 0.5), (0.5, 1.0)))
        a = solve_velocity(law, *coarse).x1dot
        b = solve_velocity(law, fine_shape, fine_rate).x1dot
        assert math.isclose(a, b, rel_tol=1e-12)


class TestSlidingWaveInstantaneous:
    def test_solver_matches_stage_velocity_formulas(self):
        from dircrawl.analytic import sliding_stage_velocity

        cases = [
            (FrictionLaw(0, 0, 1, 1), 1.0, 1.0, 0.25, 1.0),
            (FrictionLaw(0.3, 0, 1.0, 0.8), 0.5, 1.3, 0.08, 1.0),
            (FrictionLaw(0, 0.2, 0.8, 1.0), -0.4, 1.0, 0.1, 1.0),
        ]
        for law, eps, c, delta, L in cases:
            w = SquareWave(ref_length=L, delta=delta, epsilon=eps, speed=c)
            T = w.period
            for t in [T * k / 17 for k in range(1, 17)]:
                expected = sliding_stage_velocity(law, eps, c, delta, L, t)
                sol = solve_velocity(law, w.shape_at(t), w.rate_at(t))
                assert math.isclose(sol.x1dot, expected, rel_tol=1e-10, abs_tol=1e-12)
                assert sol.regime == SLIDING


class TestManyPieceShapes:
    def test_solver_vs_bisection_on_random_multinode_fields(self):
        rng = random.Random(8712)
        for _ in range(120):
            law = random_law(rng, min_mu_gap=1e-3)
            n_nodes = rng.randint(3, 6)
            ref = sorted({0.0, 1.0, *(rng.uniform(0.05, 0.95) for _ in range(n_nodes - 2))})
            arcs = [0.0]
            for i in range(len(ref) - 1):
                arcs.append(arcs[-1] + rng.uniform(0.3, 1.8) * (ref[i + 1] - ref[i]))
            shape = PiecewiseAffineShape(tuple(ref), tuple(arcs))
            pairs = []
            for i in range(len(ref) - 1):
                if rng.random() < 0.5:
                    r = rng.uniform(-1.5, 1.5)
                    pairs.append((r, r))  # constant piece (wave-like)
                else:
                    pairs.append((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
            if pairs[0][0] != pairs[0][1]:
                pairs[0] = (0.0, pairs[0][1])  # arc-length origin is pinned
            rate = ShapeRate(tuple(ref), tuple(pairs))
            sol = solve_velocity(law, shape, rate)
            fv = total_force(law, shape, rate, sol.x1dot)
            scalef = (law.tau_minus + law.tau_plus + law.mu_minus + law.mu_plus) * shape.length
            assert sol.residual <= 1e-10 * max(1.0, scalef)
            assert fv.lo - 1e-10 * max(1.0, scalef) <= 0.0 <= fv.hi + 1e-10 * max(1.0, scalef)
            if sol.regime == SLIDING:
                ref_x = bisect_velocity(law, shape, rate)
                assert abs(sol.x1dot - ref_x) <= 1e-9 * max(1.0, abs(ref_x))


class TestStickForceWindow:
    def test_static_force_window_flips_sign_at_width_bound(self):
        # with the wave fully inside and the rest of the body at rest, the
        # static force range contains zero exactly up to the width bound
        law = FrictionLaw(1.0, 1.0, 0.3, 0.0)
        eps, c, L = 0.5, 1.0, 1.0
        dmax = stickslip_delta_max(law, eps, c, L)
        for factor, admissible in ((0.95, True), (1.0, True), (1.05, False)):
            w = SquareWave(ref_length=L, delta=dmax * factor, epsilon=eps, speed=c)
            t = 0.5 * (w.corner_times()[1] + w.corner_times()[2])
            fv = total_force(law, w.shape_at(t), w.rate_at(t), 0.0)
            assert fv.contains(0.0) == admissible


# -- why no balance root lies beyond the extreme breakpoints ------------------

_magnitude = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
_laws = st.tuples(_magnitude, _magnitude, _magnitude, _magnitude).filter(any)
_rates = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1e300, 1e300))


@st.composite
def _shapes(draw):
    """One to three pieces of any length, with arbitrary end rates."""
    nodes = [0.0]
    for _ in range(draw(st.integers(1, 3))):
        nodes.append(nodes[-1] + draw(st.floats(1e-300, 1e300)))
    assume(all(a < b for a, b in zip(nodes, nodes[1:])))
    nodes = tuple(nodes)
    pairs = tuple((draw(_rates), draw(_rates)) for _ in nodes[1:])
    return PiecewiseAffineShape(nodes, nodes), ShapeRate(nodes, pairs)


class TestSignOfTheTails:
    """Friction only opposes sliding.  Once every point slides backward (at
    or left of the smallest breakpoint) the force is >= 0, and once every
    point slides forward it is <= 0, so the solvers search no tail for a
    root.  NaN, from overflow, is neither."""

    @settings(max_examples=500)
    @given(params=_laws, shape_rate=_shapes())
    def test_force_never_points_into_a_tail(self, params, shape_rate):
        law = FrictionLaw(*params)
        shape, rate = shape_rate
        ends = [r for pair in rate.seg_rates for r in pair]
        assert not total_force(law, shape, rate, -max(ends)).hi < 0.0
        assert not total_force(law, shape, rate, -min(ends)).lo > 0.0

    @settings(max_examples=500)
    @given(params=_laws, ldot=st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)))
    def test_breather_discriminant_is_never_negative(self, params, ldot):
        try:
            roots = breather_roots(FrictionLaw(*params), ldot)
        except ValueError as exc:
            assert "viscosities coincide" in str(exc) or "overflows" in str(exc)
            return
        assert roots.discriminant >= 0.0
