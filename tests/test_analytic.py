import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dircrawl.analytic import (
    _MAX_DEPTH,
    _MAX_PANELS,
    _QK15,
    _QP31,
    adaptive_gauss,
    breather_cycle_displacement,
    breather_roots,
    breather_velocity,
    composite_stride_displacement,
    negative_displacement_feasible,
    newtonian_sliding_displacement,
    sliding_cycle_displacement,
    sliding_delta_max,
    sliding_stage_velocity,
    stickslip_delta_max,
    stickslip_displacement,
    stickslip_max_displacement_dry,
    wave_admissibility,
)
from dircrawl.balance import solve_velocity
from dircrawl.body import Breather, ConstantLength, PiecewiseAffineShape, ShapeRate
from dircrawl.errors import DegenerateSubstrateError, MixedRheologyError, RegimeMismatchError
from dircrawl.friction import FrictionLaw, scale
from oracles import (
    least_resistance_orientation,
    literal_sliding_stages,
    newtonian_sliding_literal,
    normalized_root_velocity,
    random_law,
    starred_sliding_stages,
)


def bump(rest, delta, period):
    def f(t):
        return rest + delta * math.sin(math.pi * t / period) ** 2

    def fdot(t):
        return delta * (math.pi / period) * math.sin(2.0 * math.pi * t / period)

    return f, fdot


# m * 2**e with |e| <= 250: times any 2**k with |k| <= 510, still normal
_BINARY = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-250, 250))


class TestBreatherVelocity:
    def test_dry_elongation(self):
        law = FrictionLaw(3.0, 1.0, 0.0, 0.0)  # asymmetry ratio 0.75
        assert math.isclose(breather_velocity(law, 1.0), -0.25, rel_tol=1e-15)

    def test_newtonian_contraction(self):
        law = FrictionLaw(0.0, 0.0, 4.0, 1.0)  # ratio 2
        assert math.isclose(breather_velocity(law, -1.0), 2.0 / 3.0, rel_tol=1e-14)

    def test_symmetric_law_splits_evenly(self):
        law = FrictionLaw(1.0, 1.0, 2.0, 2.0)
        for ldot in (0.3, -0.3, 5.0):
            assert math.isclose(breather_velocity(law, ldot), -0.5 * ldot, rel_tol=1e-14)

    def test_general_law_quadratic_root(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        expected = (4.0 - math.sqrt(22.0)) / 2.0
        assert math.isclose(breather_velocity(law, 1.0), expected, rel_tol=1e-15)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            breather_velocity(FrictionLaw(1, 1, 1, 1), 0.0)

    @pytest.mark.parametrize(
        "ldot, k",
        [(30.0, 0), (-30.0, 0), (1e-5, 0), (1e100, -260)],
        ids=["30.0", "-30.0", "1e-05", "1e+100"],
    )
    def test_viscous_force_beyond_the_yield_gap(self, ldot, k):
        # |ldot| is far below the yield gap, but mu_minus * |ldot| is far
        # above it: not the yield-dominated limit, and w * w overflows.  At
        # 1e100 the solver's force scale overflows too, so the solver checks
        # the law with yields and rate scaled by 2**k, which scales the
        # closed form exactly
        law = FrictionLaw(3.03e-184, 7.21e245, 1.59e285, 0.792)
        law_k = FrictionLaw(
            math.ldexp(law.tau_minus, k), math.ldexp(law.tau_plus, k), law.mu_minus, law.mu_plus
        )
        ldot_k = math.ldexp(ldot, k)
        v_k = breather_velocity(law_k, ldot_k)
        assert breather_velocity(law, ldot) == math.ldexp(v_k, -k)
        shape = PiecewiseAffineShape((0.0, 1.0), (0.0, 1.0))
        sol = solve_velocity(law_k, shape, ShapeRate((0.0, 1.0), ((0.0, ldot_k),)))
        assert abs(v_k - sol.x1dot) <= 1e-12 * abs(ldot_k)

    @settings(max_examples=300)
    @given(
        st.tuples(*[st.one_of(st.just(0.0), _BINARY)] * 4).filter(any),
        _BINARY,
        st.booleans(),
        st.integers(-510, 510),
    )
    @example((13721843226.888802, 0.03709071675727699, 1.1170407646832141e-65, 0.0),
             5073373944.1433735, False, -143)
    def test_exact_under_power_of_two_scaling(self, coefs, rate, elongating, k):
        # every input and every input times 2**k is normal, so the unit-scale
        # evaluation sees the same numbers either way; the results compare
        # where they are normal too
        law = FrictionLaw(*coefs)
        ldot = rate if elongating else -rate
        v = breather_velocity(law, ldot)
        assert breather_velocity(scale(law, 2.0**k), ldot) == v
        yields_k = FrictionLaw(
            math.ldexp(law.tau_minus, k), math.ldexp(law.tau_plus, k), law.mu_minus, law.mu_plus
        )
        v_k = math.ldexp(v, k)
        if min(abs(v), abs(v_k)) >= sys.float_info.min:
            assert breather_velocity(yields_k, math.ldexp(ldot, k)) == v_k

    def test_scaled_denominator_that_underflows_means_rest(self):
        # only the yield behind the motion resists, and it is ~1e-84 of the
        # viscosity once divided by |ldot|: at unit scale the denominator is
        # 0.  The solver refuses the input: mu_plus * |ldot| overflows its
        # force scale.
        law = FrictionLaw(4.470877581627024e56, 0.0, 0.0, 6.027151618559045e277)
        ldot = -9.121782968964876e139
        assert breather_velocity(law, ldot) == 0.0
        with pytest.raises(DegenerateSubstrateError, match="force scale overflows"):
            solve_velocity(law, PiecewiseAffineShape((0.0, 1.0), (0.0, 1.0)),
                           ShapeRate((0.0, 1.0), ((0.0, ldot),)))

    @pytest.mark.parametrize(
        "law, t",
        [
            (FrictionLaw(0.0, 0.0, 1.0, 0.0), 0.25),  # elongating
            (FrictionLaw(0.0, 0.0, 0.0, 1.0), 0.75),  # contracting
        ],
    )
    def test_frictionless_ahead_of_the_motion(self, law, t):
        # Nothing resists the half that slides ahead, so every velocity from
        # rest onward balances; both take the one closest to zero.
        gait = Breather(1.0, 0.5, 1.0)
        ldot = gait.length_rate_at(t)
        assert ldot > 0.0 if t < 0.5 else ldot < 0.0
        sol = solve_velocity(law, gait.shape_at(t), gait.rate_at(t))
        assert breather_velocity(law, ldot) == sol.x1dot == 0.0

    def test_sign_structure(self):
        rng = random.Random(11)
        for _ in range(200):
            law = random_law(rng)
            assert breather_velocity(law, 1.0) < 0.0
            assert breather_velocity(law, -1.0) > 0.0

    def test_scale_invariance(self):
        rng = random.Random(12)
        for _ in range(100):
            law = random_law(rng)
            k = rng.uniform(1e-2, 1e2)
            for ldot in (0.5, -2.0):
                a = breather_velocity(law, ldot)
                b = breather_velocity(scale(law, k), ldot)
                assert math.isclose(a, b, rel_tol=1e-12)

    def test_independent_of_length_by_construction(self):
        # the signature takes no length at all; the solver agrees at any
        # first-segment length of a constant-length body
        law = FrictionLaw(1.0, 0.4, 2.0, 0.3)
        for l1 in (0.3, 0.7):
            shape = PiecewiseAffineShape((0.0, 0.5, 1.0), (0.0, l1, 1.0))
            rate = ShapeRate(shape.ref, ((0.0, 1.0), (1.0, 0.0)))
            sol = solve_velocity(law, shape, rate)
            assert math.isclose(sol.x1dot, breather_velocity(law, 1.0), rel_tol=1e-12)

    def test_axis_flip_identity(self):
        # flipping the axis swaps the parameter pairs and maps the left-end
        # velocity to minus the right-end velocity
        rng = random.Random(13)
        for _ in range(100):
            law = random_law(rng)
            flipped = FrictionLaw(law.tau_plus, law.tau_minus, law.mu_plus, law.mu_minus)
            for ldot in (0.7, -1.3):
                assert math.isclose(
                    breather_velocity(flipped, ldot),
                    -breather_velocity(law, ldot) - ldot,
                    rel_tol=1e-10,
                    abs_tol=1e-12,
                )

    def test_matches_normalized_closed_form(self):
        rng = random.Random(14)
        for _ in range(200):
            law = least_resistance_orientation(random_law(rng, min_mu_gap=1e-3))
            for ldot in (0.1, -0.1, 2.0, -2.0):
                assert math.isclose(
                    breather_velocity(law, ldot),
                    normalized_root_velocity(law, ldot),
                    rel_tol=1e-10,
                )

    def test_equal_viscosity_branch_matches_normalized_form(self):
        rng = random.Random(15)
        for _ in range(100):
            mu = rng.uniform(0.0, 3.0)
            law = least_resistance_orientation(
                FrictionLaw(rng.uniform(0.01, 3), rng.uniform(0.01, 3), mu, mu)
            )
            for ldot in (0.4, -0.4):
                assert math.isclose(
                    breather_velocity(law, ldot),
                    normalized_root_velocity(law, ldot),
                    rel_tol=1e-12,
                )


class TestBreatherRoots:
    def test_exactly_one_admissible_root(self):
        rng = random.Random(16)
        for _ in range(2000):
            law = random_law(rng, min_mu_gap=1e-3)
            for ldot in (0.1, -1.0, 10.0):
                r = breather_roots(law, ldot)
                inside = [c for c in (r.c_minus, r.c_plus) if -1.0 < c < 0.0]
                assert len(inside) == 1
                assert r.admissible == "minus"
                assert inside[0] == r.c_minus

    def test_discriminant_bracketing(self):
        rng = random.Random(17)
        from dircrawl.friction import directional_pair

        for _ in range(2000):
            law = random_law(rng, min_mu_gap=1e-3)
            for ldot in (0.3, -0.7):
                r = breather_roots(law, ldot)
                p = directional_pair(law, ldot > 0.0)
                shift = (p.tau_1 - p.tau_2) / ldot
                lo = (min(p.mu_1, p.mu_2) + shift) ** 2
                hi = (max(p.mu_1, p.mu_2) + shift) ** 2
                assert lo < r.discriminant < hi

    def test_equal_viscosities_rejected(self):
        with pytest.raises(ValueError):
            breather_roots(FrictionLaw(1, 1, 2, 2), 1.0)

    @pytest.mark.parametrize("ldot", [1e-200, -1e-200, 1e-320])
    def test_overflowing_discriminant_rejected_naming_ldot(self, ldot):
        # breather_velocity covers these rates (-3.3e-201 at 1e-200); the
        # raw quadratic's (tau gap / ldot) ** 2 leaves the float range
        with pytest.raises(ValueError, match=f"ldot={ldot!r} is out of range"):
            breather_roots(FrictionLaw(1.0, 0.5, 2.0, 1.0), ldot)


class TestBreatherCycle:
    def test_dry_closed_form(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        f, fdot = bump(1.0, 1.0, 1.0)
        d = breather_cycle_displacement(law, f, fdot, 1.0, corners=(0.0, 0.5, 1.0))
        assert math.isclose(d, 0.5, rel_tol=1e-12)

    def test_newtonian_closed_form(self):
        law = FrictionLaw(0, 0, 9, 1)  # ratio 3
        f, fdot = bump(3.0, 2.0, 1.0)
        d = breather_cycle_displacement(law, f, fdot, 1.0, corners=(0.0, 0.5, 1.0))
        assert math.isclose(d, 1.0, rel_tol=1e-12)

    def test_contraction_first_profile(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        f, fdot = bump(2.0, -1.0, 1.0)  # contract then re-extend
        d = breather_cycle_displacement(law, f, fdot, 1.0, corners=(0.0, 0.5, 1.0))
        assert math.isclose(d, 0.5, rel_tol=1e-12)

    def test_non_directional_law_goes_nowhere(self):
        law = FrictionLaw(1.0, 1.0, 2.0, 2.0)
        f, fdot = bump(1.0, 0.8, 1.0)
        assert abs(breather_cycle_displacement(law, f, fdot, 1.0)) < 1e-12

    def test_rate_independent_cases_ignore_period(self):
        for law in (FrictionLaw(0.6, 0.4, 0, 0), FrictionLaw(0, 0, 4, 1)):
            values = []
            for period in (1.0, 2.0, 0.25):
                f, fdot = bump(1.0, 0.5, period)
                values.append(
                    breather_cycle_displacement(
                        law, f, fdot, period, corners=(0.0, period / 2, period)
                    )
                )
            assert max(values) - min(values) < 1e-12

    def test_general_law_matches_quadrature_oracle(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        T = 1.0
        f, fdot = bump(1.0, 0.7, T)
        d = breather_cycle_displacement(law, f, fdot, T, corners=(0.0, T / 2, T))

        def integrand(t):
            ldot = fdot(t)
            return breather_velocity(law, ldot) if ldot != 0.0 else 0.0

        ref = sum(quad(integrand, a, b, epsabs=1e-12)[0] for a, b in ((0, T / 2), (T / 2, T)))
        assert math.isclose(d, ref, rel_tol=0.0, abs_tol=1e-9)

    def test_sign_change_scan_without_corner_hints(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        f, fdot = bump(1.0, 1.0, 1.0)
        d = breather_cycle_displacement(law, f, fdot, 1.0)  # corners discovered by scan
        assert math.isclose(d, 0.5, rel_tol=1e-9)

    def test_non_periodic_profile_rejected(self):
        law = FrictionLaw(1, 0.5, 0, 0)
        with pytest.raises(ValueError):
            breather_cycle_displacement(law, lambda t: 1.0 + t, lambda t: 1.0, 1.0)


class TestAdaptiveGauss:
    def test_kronrod_rule_is_exact_to_degree_22_and_nests_leggauss_7(self):
        from numpy.polynomial.legendre import leggauss

        nodes = [x for x, _, _ in _QK15]
        assert nodes == sorted(nodes)
        for degree in range(23):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            value = math.fsum(wk * x**degree for x, wk, _ in _QK15)
            assert abs(value - exact) <= 4e-16, degree
        gauss = [(x, wg) for x, _, wg in _QK15 if wg != 0.0]
        g_nodes, g_weights = leggauss(7)
        assert len(gauss) == 7
        for (x, wg), gx, gw in zip(gauss, g_nodes.tolist(), g_weights.tolist()):
            assert abs(x - gx) <= 4e-16 and abs(wg - gw) <= 4e-16

    def test_patterson_rule_nests_qk15_and_is_exact_to_degree_46(self):
        # _QP31 was generated offline from exact rational moments (Patterson
        # 1968, Math. Comp. 22:847-856); this checks the rounded table
        nodes = [x for x, _ in _QP31]
        assert nodes == sorted(nodes)
        assert nodes[1::2] == [x for x, _, _ in _QK15]  # bit for bit
        for (x, w), (y, v) in zip(_QP31, reversed(_QP31)):
            assert x == -y and w == v
        assert all(w > 0.0 for _, w in _QP31)
        for degree in range(0, 47, 2):
            exact = 2.0 / (degree + 1)
            value = math.fsum(w * x**degree for x, w in _QP31)
            assert abs(value - exact) <= 8 * math.ulp(exact), degree

        # the rule's defect on x**48, 1.2e-17, is below the table's rounding;
        # on the Legendre polynomial P_48, whose integral is 0 and whose
        # leading coefficient is 2.3e13, it is 2.6e-4
        def legendre(n, x):
            p0, p1 = 1.0, x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1

        for degree in (46, 48):
            value = math.fsum(w * legendre(degree, x) for x, w in _QP31)
            assert (abs(value) > 1e-4) == (degree == 48), (degree, value)

    def test_degree_20_polynomial_settles_on_the_31_nested_nodes(self):
        # beyond G7 and within K15: the 15-node estimate |K - G| rejects the
        # panel, and the 31 nodes that reuse its 15 values accept it unsplit
        calls = []

        def f(t):
            calls.append(t)
            return t**20, None

        assert math.isclose(adaptive_gauss(f, 0.0, 2.0, 1e-12), 2.0**21 / 21, rel_tol=1e-14)
        assert len(calls) == 31 == len(set(calls))

    def test_degree_13_polynomial_is_exact_in_one_panel(self):
        calls = []

        def f(t):
            calls.append(t)
            return t**13 - 3.0 * t**4, None

        value = adaptive_gauss(f, 0.0, 2.0, 1e-12)
        assert math.isclose(value, 2.0**14 / 14 - 3.0 * 2.0**5 / 5, rel_tol=1e-14)
        assert len(calls) == 15  # G7 is exact, so the one panel is accepted

    def test_jump_between_nodes_is_split_at_the_key_switch(self):
        # a unit step at s, between nodes of the rule on [0, 1] and on its
        # halves; the key marks which side of the step a sample lies on
        s = 0.7071067811865476

        def f(t):
            return (1.0, "up") if t < s else (0.0, "down")

        assert abs(adaptive_gauss(f, 0.0, 1.0, 1e-11) - s) <= 1e-10

    def test_switch_bisection_stops_between_adjacent_floats(self):
        # the same step, 1e6 high: its jump times ulp(s) = 1.1e-16 still
        # exceeds the tolerance, so bisection narrows the bracket to s and
        # the float below it, which it cannot split, and stops there
        s = 0.7071067811865476
        calls = []

        def f(t):
            calls.append(t)
            return (1e6, "up") if t < s else (0.0, "down")

        assert abs(adaptive_gauss(f, 0.0, 1.0, 1e-11) - 1e6 * s) <= 1e-4
        assert math.nextafter(s, 0.0) in calls and s in calls

    def test_panel_at_the_roundoff_floor_is_accepted(self):
        # noise of ~1e-15 relative: a tolerance of 1e-20 asks for more than
        # the arithmetic resolves, so the first panel is the answer
        calls = []

        def f(t):
            calls.append(t)
            return 1.0 + 1e-15 * math.sin(1e6 * t), None

        assert math.isclose(adaptive_gauss(f, 0.0, 1.0, 1e-20), 1.0, rel_tol=1e-14)
        assert len(calls) == 15

    def test_integral_that_does_not_settle_raises_at_the_depth_limit(self):
        # noise of order 1 everywhere: the first panel is bisected down to
        # the one _MAX_DEPTH cuts deep, which does not settle either; each
        # panel fails on its 15 nodes and again on the 31 that extend them
        calls = []

        def f(t):
            calls.append(t)
            return math.sin(1e12 * t), None

        with pytest.raises(DegenerateSubstrateError, match="does not settle"):
            adaptive_gauss(f, 0.0, 1.0, 1e-11)
        assert len(calls) == 31 * (_MAX_DEPTH + 1)

    def test_integral_that_needs_too_many_panels_raises_at_the_panel_cap(self):
        # 1600 smooth periods: no panel settles on its 15 nodes, and one
        # settles on the 31 that extend them until it holds 1.5 to 3 periods,
        # 9 or 10 cuts deep, so covering [0, 1] takes more than _MAX_PANELS
        # panels
        calls = []

        def f(t):
            calls.append(t)
            return math.sin(1e4 * t), None

        with pytest.raises(DegenerateSubstrateError, match="does not settle"):
            adaptive_gauss(f, 0.0, 1.0, 1e-11)
        assert len(calls) == 31 * _MAX_PANELS
        panels = [calls[i : i + 31] for i in range(0, len(calls), 31)]
        assert min(max(p) - min(p) for p in panels) > 2.0**-16  # far from the depth limit

    @pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
    def test_singular_rate_raises_at_the_depth_limit(self, tol):
        # l = 1 + sqrt(t (1 - t)) / 2: the velocity grows as 1 / sqrt(t) at
        # both corners.  The panels there were once returned unsettled (4e-8
        # off the integral 0.0693953 at tol 1e-10), and later passed on the
        # roundoff floor whatever their error (4e-7 to 4e-4 off at 1e-11 to
        # 1e-14)
        law = FrictionLaw(1.0, 0.5, 1.0, 0.5)

        def profile(t):
            return 1.0 + 0.5 * math.sqrt(t * (1.0 - t))

        def rate(t):
            return 0.25 * (1.0 - 2.0 * t) / math.sqrt(t * (1.0 - t))

        with pytest.raises(DegenerateSubstrateError, match="does not settle"):
            breather_cycle_displacement(law, profile, rate, 1.0, corners=(0.0, 0.5, 1.0), tol=tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-13, 1e-14])
    def test_pole_past_the_end_settles_at_every_tolerance(self, tol):
        # -1 / (1.001 - t): a tighter tolerance once gave a worse answer
        # (6.8e-5 off at 1e-13, 6.6 % at 1e-14), the panels at the pole end
        # passing on the roundoff floor whatever their error
        value = adaptive_gauss(lambda t: (-1.0 / (1.001 - t), None), 0.0, 1.0, tol)
        assert math.isclose(value, -math.log(1001.0), rel_tol=1e-13)


class TestConstantLengthReduction:
    # A constant-length crawler moves as a breather of its first segment.
    gait = ConstantLength(ref_length=1.0, split=0.5, seg1_rest=0.4, delta=0.2, period=1.0)

    def assert_moves_as_first_segment(self, law, t):
        l1dot = self.gait.seg1_rate_at(t)
        sol = solve_velocity(law, self.gait.shape_at(t), self.gait.rate_at(t))
        assert math.isclose(sol.x1dot, breather_velocity(law, l1dot), rel_tol=1e-12)

    def test_dry_example(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        assert math.isclose(breather_velocity(law, 1.0), -0.25, rel_tol=1e-15)
        self.assert_moves_as_first_segment(law, 0.25)

    def test_newtonian_example(self):
        law = FrictionLaw(0, 0, 4, 1)
        assert math.isclose(breather_velocity(law, -1.0), 2 / 3, rel_tol=1e-14)
        self.assert_moves_as_first_segment(law, 0.75)


class TestCompositeStride:
    def test_dry_example_edges_and_total(self):
        law = FrictionLaw(0.75, 0.25, 0, 0)
        st = composite_stride_displacement(law, 1.0, 1.0, 2.0)
        assert math.isclose(st.total, 1.75, rel_tol=1e-14)
        assert [round(e, 12) for e in st.edges] == [0.75, -0.75, -0.5, 2.25]

    def test_dry_negative_displacement_example(self):
        law = FrictionLaw(0.5, 0.5, 0, 0)
        st = composite_stride_displacement(law, 0.1, 1.0, 2.0)
        assert math.isclose(st.total, -0.5, rel_tol=1e-14)
        assert negative_displacement_feasible(law, 0.1, 1.0, 2.0)

    def test_newtonian_unit_ratio(self):
        law = FrictionLaw(0, 0, 1, 1)
        for lam, delta, h in ((0.3, 1.0, 2.0), (1.0, 0.5, 3.0)):
            st = composite_stride_displacement(law, lam, delta, h)
            assert math.isclose(st.total, delta * (1.0 - h) / 2.0, rel_tol=1e-13)

    def test_edges_sum_to_total(self):
        rng = random.Random(19)
        for _ in range(200):
            dry = rng.random() < 0.5
            if dry:
                law = FrictionLaw(rng.uniform(0.1, 3), rng.uniform(0.1, 3), 0, 0)
            else:
                law = FrictionLaw(0, 0, rng.uniform(0.1, 3), rng.uniform(0.1, 3))
            lam, delta, h = rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(1.1, 5)
            st = composite_stride_displacement(law, lam, delta, h)
            assert math.isclose(sum(st.edges), st.total, rel_tol=0.0, abs_tol=1e-12)
            assert negative_displacement_feasible(law, lam, delta, h) == (st.total < 0.0)

    def test_mixed_rheology_routed_to_simulation(self):
        with pytest.raises(MixedRheologyError, match="simulate"):
            composite_stride_displacement(FrictionLaw(1, 0.5, 1, 0.5), 1.0, 1.0, 2.0)

    def test_feasibility_saturates(self):
        strong = FrictionLaw(0.9, 0.1, 0, 0)  # ratio 0.9 > 2/3
        assert not negative_displacement_feasible(strong, 1e-3, 1.0, 1e3)
        viscous = FrictionLaw(0, 0, 6.25, 1)  # ratio 2.5 > 2
        assert not negative_displacement_feasible(viscous, 1e-3, 1.0, 1e3)
        balanced = FrictionLaw(0.5, 0.5, 0, 0)
        assert negative_displacement_feasible(balanced, 0.01, 1.0, 10.0)
        # no forward viscosity: beta is infinite, above every bound
        assert not negative_displacement_feasible(FrictionLaw(0, 0, 1, 0), 0.01, 1.0, 10.0)

    def test_feasibility_refuses_a_mixed_law(self):
        with pytest.raises(MixedRheologyError, match="^feasibility bound covers only pure dry"):
            negative_displacement_feasible(_MIXED, 1.0, 0.2, 2.0)


class TestWaveAdmissibility:
    def test_dry_symmetric_extension_bound(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)
        assert math.isclose(stickslip_delta_max(law, 1.0, 1.0, 1.0), 1.0 / 3.0, rel_tol=1e-14)

    def test_newtonian_cannot_stick(self):
        law = FrictionLaw(0, 0, 1, 1)
        adm = wave_admissibility(law, 1.0, 1.0, 0.25, 1.0)
        assert adm.stickslip_delta_max == 0.0
        assert adm.regime == "sliding"

    def test_sliding_bound_example(self):
        law = FrictionLaw(1.0, 0.0, 1.0, 1.0)
        bound = sliding_delta_max(law, 1.0, 1.0, 1.0)
        assert math.isclose(bound, 1.0 / 3.0, rel_tol=1e-14)
        assert wave_admissibility(law, 1.0, 1.0, 0.3, 1.0).regime == "sliding"
        assert wave_admissibility(law, 1.0, 1.0, 0.34, 1.0).regime == "infeasible"

    def test_boundary_width_is_admissible_for_stick_slip(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)
        dmax = stickslip_delta_max(law, 0.5, 1.0, 1.0)
        assert wave_admissibility(law, 0.5, 1.0, dmax, 1.0).regime == "stick_slip"

    def test_contraction_bound_literal(self):
        law = FrictionLaw(1.0, 0.5, 0.3, 0.2)
        eps, c, L = -0.4, 1.3, 1.0
        expected = law.tau_minus * L / (
            (law.tau_plus - law.mu_plus * eps * c) * (1.0 + eps) + law.tau_minus
        )
        assert math.isclose(stickslip_delta_max(law, eps, c, L), expected, rel_tol=1e-14)

    def test_modes_mutually_exclusive(self):
        rng = random.Random(20)
        for _ in range(300):
            law = random_law(rng, tau_range=(0.0, 2.0), mu_range=(0.0, 2.0))
            eps = rng.choice([-1, 1]) * rng.uniform(0.05, 0.9)
            regimes = set()
            for delta in (0.05, 0.2, 0.5, 0.8):
                regimes.add(wave_admissibility(law, eps, 1.0, delta, 1.0).regime)
            assert not {"stick_slip", "sliding"} <= regimes

    def test_no_resistance_ahead(self):
        law = FrictionLaw(1.0, 0.0, 1.0, 0.0)
        adm = wave_admissibility(law, 1.0, 1.0, 0.2, 1.0)
        assert adm.regime == "infeasible"
        assert "tau_plus=mu_plus=0" in adm.violated_condition

    def test_domain_validation(self):
        law = FrictionLaw(1, 1, 0, 0)
        with pytest.raises(ValueError):
            wave_admissibility(law, 0.0, 1.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            wave_admissibility(law, 0.5, 1.0, 1.2, 1.0)


class TestStickSlip:
    @pytest.mark.parametrize(
        "eps,delta,expected",
        [(0.5, 0.2, -0.1), (-0.5, 0.2, 0.1), (0.0, 0.2, 0.0)],
    )
    def test_displacement(self, eps, delta, expected):
        assert math.isclose(stickslip_displacement(eps, delta), expected, abs_tol=1e-15)

    def test_max_displacement_examples(self):
        assert math.isclose(
            stickslip_max_displacement_dry(0.5, 0.5, 1.0), -0.2, rel_tol=1e-14
        )
        assert math.isclose(
            stickslip_max_displacement_dry(0.5, -0.5, 1.0), 1.0 / 3.0, rel_tol=1e-14
        )

    def test_max_displacement_equals_bound_route(self):
        # must agree with -eps * delta_max evaluated through the width bound
        for a, eps in ((0.3, 0.7), (0.75, 0.4), (0.6, -0.5), (0.25, -0.8)):
            law = FrictionLaw(a, 1.0 - a, 0.0, 0.0)
            dmax = stickslip_delta_max(law, eps, 1.0, 1.0)
            assert math.isclose(
                stickslip_max_displacement_dry(a, eps, 1.0), -eps * dmax, rel_tol=1e-12
            )

    def test_full_conversion_limit(self):
        # as the wave erases the body, all width is converted to displacement
        value = stickslip_max_displacement_dry(0.5, -1.0 + 1e-9, 1.0)
        assert math.isclose(value, 1.0, rel_tol=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            stickslip_max_displacement_dry(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            stickslip_max_displacement_dry(1.5, 0.5, 1.0)


class TestSlidingStages:
    def test_stage_inside_value(self):
        law = FrictionLaw(0, 0, 1, 1)
        v = sliding_stage_velocity(law, 1.0, 1.0, 0.25, 1.0, 0.5)
        assert math.isclose(v, 0.4, rel_tol=1e-14)

    def test_entry_limit(self):
        law = FrictionLaw(0, 0, 1, 1)
        v = sliding_stage_velocity(law, 1.0, 1.0, 0.25, 1.0, 1e-13)
        assert math.isclose(v, -1.0, rel_tol=1e-9)

    @pytest.mark.parametrize("t", [0.0, 5e-324])
    def test_front_at_rest_moves_back_at_epsilon_c(self, t):
        # c * t is 0 at t = 0, and rounds to 0 at t = 5e-324
        law = FrictionLaw(0, 0, 1, 1)
        assert sliding_stage_velocity(law, 0.5, 1.0, 0.25, 1.0, t) == -0.5

    def test_subnormal_stage_time_refused(self):
        # delta / c = 1.1e-323: at t = 1e-323 the entering wave (c * t < delta)
        # was taken as inside, 3 % off the solver on the wave's shape
        law = FrictionLaw(0, 0, 8.75, 8.68)
        assert wave_admissibility(law, 2.37, 4.28e280, 4.75e-43, 9.5e-43).regime == "sliding"
        with pytest.raises(ValueError, match=r"^delta=4\.75e-43 / c=4\.28e\+280 is subnormal"):
            sliding_stage_velocity(law, 2.37, 4.28e280, 4.75e-43, 9.5e-43, 1e-323)

    def test_stage_constraints_extension(self):
        law = FrictionLaw(0.2, 0.0, 1.0, 0.8)
        eps, c, delta, L = 0.5, 1.3, 0.1, 1.0
        assert wave_admissibility(law, eps, c, delta, L).regime == "sliding"
        T = (L + delta) / c
        for t in [T * k / 40 for k in range(1, 40)]:
            v = sliding_stage_velocity(law, eps, c, delta, L, t)
            if t < delta / c:
                assert -eps * c < v < 0.0
            else:
                assert 0.0 < v < eps * c

    def test_stage_constraints_contraction(self):
        law = FrictionLaw(0.0, 0.2, 0.8, 1.0)
        eps, c, delta, L = -0.4, 1.0, 0.1, 1.0
        assert wave_admissibility(law, eps, c, delta, L).regime == "sliding"
        T = (L + delta) / c
        for t in [T * k / 40 for k in range(1, 40)]:
            v = sliding_stage_velocity(law, eps, c, delta, L, t)
            if t < delta / c:
                assert 0.0 < v < -eps * c
            else:
                assert eps * c < v < 0.0

    def test_regime_mismatch_rejected(self):
        law = FrictionLaw(1.0, 1.0, 0.0, 0.0)  # dry substrate: stick-slip territory
        with pytest.raises(RegimeMismatchError):
            sliding_stage_velocity(law, 0.5, 1.0, 0.1, 1.0, 0.05)


class TestSlidingCycle:
    def test_newtonian_unit_ratio_value(self):
        sd = sliding_cycle_displacement(FrictionLaw(0, 0, 1, 1), 1.0, 1.0, 0.25, 1.0)
        expected = 1.05 + 4.0 * math.log(0.8)
        assert math.isclose(sd.total, expected, rel_tol=1e-12)

    def test_stage_identity(self):
        rng = random.Random(21)
        for _ in range(200):
            b2 = rng.uniform(0.1, 5.0)
            eps = rng.choice([-1, 1]) * rng.uniform(0.05, 0.9)
            delta = rng.uniform(0.05, 0.9)
            law = FrictionLaw(0, 0, b2, 1.0)
            sd = sliding_cycle_displacement(law, eps, 1.0, delta, 1.0)
            assert abs((sd.exit - sd.enter) - eps * delta) <= 1e-12

    def test_matches_literal_log_form(self):
        law = FrictionLaw(0.3, 0.0, 1.0, 0.8)  # viscosities well separated
        eps, c, L = 0.5, 1.3, 1.0
        delta = 0.5 * sliding_delta_max(law, eps, c, L)
        sd = sliding_cycle_displacement(law, eps, c, delta, L)
        enter, inside, exit_ = literal_sliding_stages(law, eps, c, delta, L)
        assert math.isclose(sd.enter, enter, rel_tol=1e-10)
        assert math.isclose(sd.inside, inside, rel_tol=1e-10)
        assert math.isclose(sd.exit, exit_, rel_tol=1e-10)

    def test_matches_starred_form_at_branch_point(self):
        # (1+eps)*mu_minus == mu_plus exactly
        eps = 0.5
        law = FrictionLaw(0.3, 0.0, 1.0, 1.5)
        c, L = 1.2, 1.0
        delta = 0.5 * sliding_delta_max(law, eps, c, L)
        sd = sliding_cycle_displacement(law, eps, c, delta, L)
        enter, inside, exit_ = starred_sliding_stages(law, eps, c, delta, L)
        assert math.isclose(sd.enter, enter, rel_tol=1e-12)
        assert math.isclose(sd.inside, inside, rel_tol=1e-12)
        assert math.isclose(sd.exit, exit_, rel_tol=1e-12)

    def test_branch_continuity(self):
        # approaching the degenerate viscosity combination from both sides
        eps, c, L = 0.5, 1.2, 1.0
        star = sliding_cycle_displacement(
            FrictionLaw(0.3, 0.0, 1.0, 1.5), eps, c, 0.05, L
        ).total
        for sign in (+1.0, -1.0):
            law = FrictionLaw(0.3, 0.0, 1.0, 1.5 + sign * 1e-9)
            val = sliding_cycle_displacement(law, eps, c, 0.05, L).total
            assert abs(val - star) < 1e-8

    def test_stagewise_quadrature_oracle(self):
        cases = [
            (FrictionLaw(0, 0, 1, 1), 1.0, 1.0, 0.25, 1.0),
            (FrictionLaw(0, 0, 0.25, 1), 0.6, 1.0, 0.3, 1.0),
            (FrictionLaw(0.3, 0, 1.0, 0.8), 0.5, 1.3, 0.08, 1.0),
            (FrictionLaw(0, 0.2, 0.8, 1.0), -0.4, 1.0, 0.1, 1.0),
            (FrictionLaw(0.3, 0.0, 1.0, 1.5), 0.5, 1.2, 0.05, 1.0),  # starred branch
        ]
        for law, eps, c, delta, L in cases:
            sd = sliding_cycle_displacement(law, eps, c, delta, L)
            f = lambda t: sliding_stage_velocity(law, eps, c, delta, L, t)
            qa = quad(f, 0.0, delta / c, epsabs=1e-13, limit=200)[0]
            qb = quad(f, delta / c, L / c, epsabs=1e-13, limit=200)[0]
            qc = quad(f, L / c, (L + delta) / c - 1e-15, epsabs=1e-13, limit=200)[0]
            assert math.isclose(sd.enter, qa, rel_tol=0, abs_tol=1e-8)
            assert math.isclose(sd.inside, qb, rel_tol=0, abs_tol=1e-8)
            assert math.isclose(sd.exit, qc, rel_tol=0, abs_tol=1e-8)

    def test_inadmissible_configuration_rejected(self):
        with pytest.raises(RegimeMismatchError):
            sliding_cycle_displacement(FrictionLaw(1, 1, 0, 0), 0.5, 1.0, 0.1, 1.0)


class TestNewtonianSliding:
    def test_matches_literal_form_extension(self):
        for beta_value, eps in ((1.0, 1.0), (2.0, 0.5), (0.5, 0.3)):
            if (1.0 + eps) * beta_value**2 == 1.0:
                continue
            mine = newtonian_sliding_displacement(beta_value, eps, 0.25, 1.0)
            ref = newtonian_sliding_literal(beta_value, eps, 0.25, 1.0)
            assert math.isclose(mine, ref, rel_tol=1e-11)

    def test_contraction_is_reciprocal_ratio_substitution(self):
        # a contraction wave gives the extension closed form evaluated at the
        # reciprocal viscous ratio (same amplitude)
        for beta_value in (0.5, 1.0, 2.0):
            eps = -0.4
            direct = newtonian_sliding_displacement(beta_value, eps, 0.25, 1.0)
            ref = newtonian_sliding_literal(1.0 / beta_value, eps, 0.25, 1.0)
            assert math.isclose(direct, ref, rel_tol=1e-11)

    def test_low_forward_friction_advances(self):
        for b2 in (1.0, 2.0, 4.0):
            for eps in (0.1, 0.5, 0.9):
                assert newtonian_sliding_displacement(math.sqrt(b2), eps, 0.25, 1.0) > 0.0

    def test_reverse_ratio_can_retreat(self):
        values = [
            newtonian_sliding_displacement(0.5, eps, 0.25, 1.0)
            for eps in (0.05, 0.1, 0.2, 0.4)
        ]
        assert min(values) < 0.0

    def test_collapse_limit_returns_width(self):
        # as the wave amplitude erases the body, the displacement tends to
        # the wave width; narrow waves converge fastest
        for beta_value in (0.5, 1.0, 2.0):
            val = newtonian_sliding_displacement(beta_value, -0.999, 0.1, 1.0)
            assert abs(val - 0.1) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            newtonian_sliding_displacement(0.0, 0.5, 0.25, 1.0)
        with pytest.raises(ValueError):
            newtonian_sliding_displacement(1.0, 0.5, 1.5, 1.0)


class TestSmallRateStability:
    def test_velocity_ratio_tends_to_dry_limit(self):
        # as the rate vanishes, yield forces dominate and the ratio tends to
        # the dry coefficients; the evaluation must not lose precision there
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        a = 2.0 / 3.0  # tau_minus / (tau_minus + tau_plus)
        for ldot in (1e-6, 1e-12, 1e-16, 1e-200):
            assert math.isclose(breather_velocity(law, ldot) / ldot, -(1 - a), rel_tol=1e-5)
            assert math.isclose(breather_velocity(law, -ldot) / -ldot, -a, rel_tol=1e-5)

    def test_ratio_is_monotone_smooth_in_rate(self):
        law = FrictionLaw(2.0, 1.0, 3.0, 1.0)
        ratios = [breather_velocity(law, 10.0**k) / 10.0**k for k in range(-18, 2)]
        for r0, r1 in zip(ratios, ratios[1:]):
            assert -1.0 < r0 < 0.0
            assert abs(r1 - r0) < 0.2  # no jumps across the evaluation range


class TestRootViewConsistency:
    def test_raw_minus_root_matches_stable_velocity(self):
        rng = random.Random(22)
        for _ in range(500):
            law = random_law(rng, min_mu_gap=1e-3)
            for ldot in (0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
                raw = breather_roots(law, ldot).c_minus * ldot
                stable = breather_velocity(law, ldot)
                assert math.isclose(raw, stable, rel_tol=1e-9, abs_tol=1e-12)


_MIXED = FrictionLaw(1.0, 0.5, 2.0, 1.0)
_DRY = FrictionLaw(1.0, 0.5, 0.0, 0.0)
_SLIDING = FrictionLaw(0.0, 0.0, 1.0, 1.0)
_STRIDE = {"lam": 1.0, "delta": 0.2, "h": 2.0}
_WAVE = {"epsilon": 1.0, "c": 1.0, "delta": 0.25, "L": 1.0}
# (closed form, leading arguments, its float arguments by name), valid as given
_CLOSED_FORMS = [
    (breather_roots, (_MIXED,), {"ldot": 1.0}),
    (breather_velocity, (_MIXED,), {"ldot": 1.0}),
    (breather_cycle_displacement, (_MIXED, *bump(1.0, 0.2, 1.0)), {"period": 1.0, "tol": 1e-10}),
    (composite_stride_displacement, (_DRY,), _STRIDE),
    (negative_displacement_feasible, (_DRY,), _STRIDE),
    (wave_admissibility, (_DRY,), _WAVE),
    (stickslip_delta_max, (_DRY,), {"epsilon": 0.5, "c": 1.0, "L": 1.0}),
    (sliding_delta_max, (_SLIDING,), {"epsilon": 0.5, "c": 1.0, "L": 1.0}),
    (stickslip_displacement, (), {"epsilon": 0.5, "delta": 0.2}),
    (stickslip_max_displacement_dry, (), {"alpha_value": 0.5, "epsilon": 0.5, "L": 1.0}),
    (sliding_stage_velocity, (_SLIDING,), {**_WAVE, "t": 0.5}),
    (sliding_cycle_displacement, (_SLIDING,), _WAVE),
    (newtonian_sliding_displacement, (), {"beta_value": 1.5, "epsilon": 0.5, "delta": 0.2, "L": 1.0}),
]


@pytest.mark.parametrize(
    "form, lead, args, name",
    [
        pytest.param(form, lead, {**args, name: bad}, name, id=f"{form.__name__}-{name}={bad}")
        for form, lead, args in _CLOSED_FORMS
        for name in args
        for bad in (math.nan, math.inf, -math.inf)
    ],
)
def test_non_finite_argument_is_refused_by_name(form, lead, args, name):
    # each used to name another argument, return nan or 0.0, or (a breather
    # cycle's period) reach the quadrature and fail to settle
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        form(*lead, **args)


@pytest.mark.parametrize("form, lead, args", _CLOSED_FORMS)
def test_closed_form_cases_are_valid(form, lead, args):
    form(*lead, **args)


@pytest.mark.parametrize("tol", [-1.0, 0.0, -0.0])
def test_breather_cycle_refuses_a_tolerance_that_is_not_positive(tol):
    # a tolerance <= 0 holds every panel to the roundoff floor, so the
    # quadrature would return a value (0.0234044688019052) without error
    with pytest.raises(ValueError, match=r"^tol must be finite and exceed 0"):
        breather_cycle_displacement(FrictionLaw(1, 0.5, 1, 2), *bump(1.0, 0.1, 1.0), 1.0, tol=tol)


@pytest.mark.parametrize(
    "form, args, named",
    [
        (composite_stride_displacement, (_DRY, 1e308, 0.2, 2.0), "lam=1e+308 is"),
        (
            sliding_cycle_displacement,
            (_SLIDING, 0.5, 1.0, 1e300, 1e308),
            "delta=1e+300, L=1e+308 are",
        ),
        (stickslip_displacement, (2.0, 1e308), "delta=1e+308 is"),
        (stickslip_displacement, (1e160, 1e160), "epsilon=1e+160, delta=1e+160 are"),
        (
            wave_admissibility,
            (FrictionLaw(1, 0, 0, 1e300), 0.5, 1.0, 1.0, 1e10),
            "law.mu_plus=1e+300 is",
        ),
        (breather_roots, (_MIXED, 1e-200), "ldot=1e-200 is"),
        (
            # admissible (the drive mu_plus * epsilon * c is finite), but the
            # velocity inside the stage is 0.79 epsilon * c = 7.9e308
            sliding_stage_velocity,
            (FrictionLaw(0, 0, 1e-300, 1e-300), 10.0, 1e308, 2.5e9, 1e10, 5e-299),
            "c=1e+308, law.mu_minus=1e-300, law.mu_plus=1e-300 are",
        ),
    ],
)
def test_overflow_names_the_inputs_that_overflowed(form, args, named):
    # the name comes from the inputs' magnitudes, not from the closed form
    message = rf"^{re.escape(named)} out of range: the closed form overflows"
    with pytest.raises(ValueError, match=message):
        form(*args)
