import math
import random

import pytest
from hypothesis import given, strategies as st

from dircrawl.friction import (
    FrictionLaw,
    ForceValue,
    alpha,
    beta,
    directional_pair,
    evaluate,
    scale,
)

# snap tiny values to zero so scaling by small factors cannot underflow a
# parameter out of existence
params = st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(
    lambda x: 0.0 if x < 1e-12 else x
)
velocities = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def laws():
    return st.tuples(params, params, params, params).filter(
        lambda t: any(v > 0.0 for v in t)
    ).map(lambda t: FrictionLaw(*t))


class TestFrictionLaw:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            FrictionLaw(-1.0, 0.0, 0.0, 0.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            FrictionLaw(0.0, 0.0, 0.0, 0.0)

    def test_special_case_flags(self):
        assert FrictionLaw(1, 2, 0, 0).is_dry
        assert FrictionLaw(0, 0, 1, 2).is_newtonian
        assert not FrictionLaw(1, 0, 1, 0).is_dry


class TestEvaluate:
    def test_dry_backward_branch(self):
        fv = evaluate(FrictionLaw(1.0, 0.5, 0.0, 0.0), -1.0)
        assert fv.is_point and fv.value == 1.0

    def test_static_interval(self):
        fv = evaluate(FrictionLaw(1.0, 0.5, 2.0, 3.0), 0.0)
        assert (fv.lo, fv.hi) == (-0.5, 1.0)

    def test_newtonian_forward_branch(self):
        fv = evaluate(FrictionLaw(0.0, 0.0, 2.0, 1.0), 3.0)
        assert fv.value == -3.0

    def test_a_nan_velocity_is_refused(self):
        # NaN compares false both ways, so it used to read as rest: [-0.5, 1]
        with pytest.raises(ValueError, match="^v must not be nan$"):
            evaluate(FrictionLaw(1, 0.5, 1, 1), math.nan)

    def test_an_infinite_velocity_keeps_its_force(self):
        law = FrictionLaw(1, 0.5, 1, 1)
        assert evaluate(law, math.inf) == ForceValue(-math.inf, -math.inf)
        assert evaluate(law, -math.inf) == ForceValue(math.inf, math.inf)


class TestScale:
    def test_identity(self):
        law = FrictionLaw(1.0, 0.5, 2.0, 3.0)
        assert scale(law, 1.0) == law

    def test_component_scaling(self):
        assert scale(FrictionLaw(1, 0.5, 2, 3), 2.0) == FrictionLaw(2, 1, 4, 6)

    def test_pointwise_linearity(self):
        law = FrictionLaw(1, 0.5, 2, 3)
        assert evaluate(scale(law, 2.0), -1.0).value == 2.0 * evaluate(law, -1.0).value

    @pytest.mark.parametrize("k", [0.0, -1.0, math.inf])
    def test_invalid_factor(self, k):
        with pytest.raises(ValueError):
            scale(FrictionLaw(1, 1, 1, 1), k)


class TestDirectionalPair:
    def test_elongating(self):
        p = directional_pair(FrictionLaw(1, 0.5, 2, 3), elongating=True)
        assert (p.tau_1, p.mu_1, p.tau_2, p.mu_2) == (1.0, 2.0, -0.5, 3.0)

    def test_contracting(self):
        p = directional_pair(FrictionLaw(1, 0.5, 2, 3), elongating=False)
        assert (p.tau_1, p.mu_1, p.tau_2, p.mu_2) == (-0.5, 3.0, 1.0, 2.0)

    def test_symmetric_law_pairs_mirror(self):
        law = FrictionLaw(1, 1, 2, 2)
        up = directional_pair(law, True)
        down = directional_pair(law, False)
        assert (up.tau_1, up.mu_1) == (down.tau_2, down.mu_2)
        assert (up.tau_2, up.mu_2) == (down.tau_1, down.mu_1)


class TestAsymmetryRatios:
    def test_alpha(self):
        assert alpha(FrictionLaw(3, 1, 0, 0)) == 0.75
        assert alpha(FrictionLaw(1, 1, 5, 5)) == 0.5

    def test_alpha_undefined(self):
        with pytest.raises(ValueError):
            alpha(FrictionLaw(0, 0, 1, 1))

    def test_beta(self):
        assert beta(FrictionLaw(0, 0, 4, 1)) == 2.0
        assert beta(FrictionLaw(1, 1, 1, 1)) == 1.0
        assert beta(FrictionLaw(1, 1, 0, 1)) == 0.0  # boundary of the open range

    def test_beta_undefined(self):
        with pytest.raises(ValueError):
            beta(FrictionLaw(1, 1, 1, 0))


class TestLawProperties:
    @given(laws(), velocities, velocities)
    def test_monotone_non_increasing(self, law, v1, v2):
        if v1 > v2:
            v1, v2 = v2, v1
        if v1 == v2:
            return
        f1, f2 = evaluate(law, v1), evaluate(law, v2)
        assert f1.lo >= f2.hi - 1e-12 * max(1.0, abs(f1.lo), abs(f2.hi))

    @given(laws(), velocities.filter(lambda v: v != 0.0))
    def test_dissipative(self, law, v):
        assert evaluate(law, v).value * v <= 0.0

    @given(laws(), velocities, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, law, v, k):
        fv = evaluate(law, v)
        fs = evaluate(scale(law, k), v)
        assert math.isclose(fs.lo, k * fv.lo, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(fs.hi, k * fv.hi, rel_tol=1e-12, abs_tol=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        velocities.filter(lambda v: v != 0.0),
    )
    def test_non_directional_laws_are_odd(self, tau, mu, v):
        if tau == 0.0 and mu == 0.0:
            return
        law = FrictionLaw(tau, tau, mu, mu)
        assert evaluate(law, -v).value == -evaluate(law, v).value
        static = evaluate(law, 0.0)
        assert static.lo == -static.hi

    def test_force_interval_ordering_validated(self):
        with pytest.raises(ValueError):
            ForceValue(1.0, 0.0)

    def test_an_interval_has_no_point_value(self):
        static = evaluate(FrictionLaw(1.0, 0.5, 0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="^force value is an interval, not a point$"):
            static.value


def test_property_sweep_seeded():
    # dense deterministic sweep of the three core properties
    rng = random.Random(1234)
    for _ in range(2000):
        law = FrictionLaw(
            rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5) + 1e-9
        )
        v1, v2 = sorted((rng.uniform(-10, 10), rng.uniform(-10, 10)))
        if v1 != v2:
            assert evaluate(law, v1).lo >= evaluate(law, v2).hi - 1e-12
        v = rng.uniform(-10, 10)
        if v != 0.0:
            assert evaluate(law, v).value * v <= 0.0
        k = rng.uniform(1e-2, 1e2)
        assert math.isclose(
            evaluate(scale(law, k), v).lo, k * evaluate(law, v).lo, rel_tol=1e-12, abs_tol=1e-9
        )
