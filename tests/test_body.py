import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircrawl.balance import STICK_SLIP, solve_velocity
from dircrawl.body import (
    Breather,
    CompositeStride,
    ConstantLength,
    PiecewiseAffineShape,
    ShapeRate,
    SquareWave,
    TwoSegmentPath,
)
from dircrawl.friction import FrictionLaw
from oracles import point_velocity, shape_value

# One valid instance of each gait, as constructor keyword arguments.
_VALID_GAITS = {
    Breather: {"ref_length": 1.0, "delta": 0.5, "period": 1.0, "corners": (0.0, 0.5, 1.0)},
    ConstantLength: {
        "ref_length": 1.0, "split": 0.5, "seg1_rest": 0.4, "delta": 0.3, "period": 1.0,
    },
    TwoSegmentPath: {
        "ref_length": 1.0,
        "split": 0.5,
        "times": (0.0, 0.4, 1.0),
        "l1": (0.4, 0.6, 0.4),
        "l2": (0.5, 0.55, 0.5),
    },
    CompositeStride: {"lam": 0.5, "delta": 0.5, "h": 2.0, "period": 1.0},
    SquareWave: {"ref_length": 1.0, "delta": 0.2, "epsilon": 0.5, "speed": 1.0},
}


class TestNonFiniteGaitFields:
    @pytest.mark.parametrize(
        "cls, name",
        [(cls, name) for cls, kwargs in _VALID_GAITS.items() for name in kwargs],
        ids=lambda x: getattr(x, "__name__", x),
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_naming_the_field(self, cls, name, bad):
        kwargs = dict(_VALID_GAITS[cls])
        cls(**kwargs)  # valid as given
        value = kwargs[name]
        if isinstance(value, tuple):
            kwargs[name] = (value[0], bad, *value[2:])
            where = rf"{name}\[1\]"
        else:
            kwargs[name] = bad
            where = name
        with pytest.raises(ValueError, match=rf"^{where} must be finite, got {bad!r}$"):
            cls(**kwargs)


# A gait field out of its range and the message that rejects it, each
# applied to the valid instance of its class in _VALID_GAITS.
_OUT_OF_RANGE = [
    (Breather, {"ref_length": 0.0}, "ref_length and period must be positive"),
    (Breather, {"period": -1.0}, "ref_length and period must be positive"),
    (ConstantLength, {"ref_length": -1.0}, "ref_length and period must be positive"),
    (ConstantLength, {"period": 0.0}, "ref_length and period must be positive"),
    (ConstantLength, {"split": 0.0}, r"split must lie strictly inside \(0, ref_length\)"),
    (ConstantLength, {"split": 1.0}, r"split must lie strictly inside \(0, ref_length\)"),
    (TwoSegmentPath, {"split": 1.0}, r"split must lie strictly inside \(0, ref_length\)"),
    (TwoSegmentPath, {"l2": (0.5, 0.5)}, "times, l1 and l2 must have equal length >= 2"),
    (
        TwoSegmentPath,
        {"times": (0.0,), "l1": (0.4,), "l2": (0.5,)},
        "times, l1 and l2 must have equal length >= 2",
    ),
    (TwoSegmentPath, {"times": (0.1, 0.4, 1.0)}, "path must start at t = 0"),
    (TwoSegmentPath, {"l1": (0.4, 0.0, 0.4)}, "segment lengths must stay positive"),
    (TwoSegmentPath, {"l2": (0.5, -0.55, 0.5)}, "segment lengths must stay positive"),
]


@pytest.mark.parametrize(
    "cls, changes, message",
    _OUT_OF_RANGE,
    ids=[
        "-".join([cls.__name__, *(f"{k}={v}" for k, v in changes.items())])
        for cls, changes, _ in _OUT_OF_RANGE
    ],
)
def test_out_of_range_gait_field_rejected_with_its_message(cls, changes, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        cls(**{**_VALID_GAITS[cls], **changes})


class TestShapeValidation:
    @pytest.mark.parametrize("ref, arc", [((0.0, 1.0), (0.0, 0.5, 1.0)), ((0.0,), (0.0,))])
    def test_node_lists_must_match_with_two_nodes(self, ref, arc):
        with pytest.raises(ValueError, match="^shape needs matching ref/arc node lists with >= 2"):
            PiecewiseAffineShape(ref, arc)

    def test_first_node_pinned(self):
        with pytest.raises(ValueError):
            PiecewiseAffineShape((0.1, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            PiecewiseAffineShape((0.0, 1.0), (0.1, 1.0))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseAffineShape((0.0, 0.5, 0.5), (0.0, 0.4, 0.8))
        with pytest.raises(ValueError):
            PiecewiseAffineShape((0.0, 0.5, 1.0), (0.0, 0.4, 0.4))

    def test_rate_pair_count(self):
        with pytest.raises(ValueError):
            ShapeRate((0.0, 1.0), ((0.0, 1.0), (1.0, 0.0)))


class TestBreather:
    def test_shape_is_affine(self):
        g = Breather(ref_length=1.0, delta=1.0, period=1.0)
        s = g.shape_at(0.5)  # peak of the bump: l = 2.0
        assert s.arc == (0.0, 2.0)
        assert shape_value(s, 1.0) == 2.0

    def test_affine_example(self):
        g = Breather(ref_length=1.0, delta=0.5, period=1.0)
        s = g.shape_at(0.5)
        assert math.isclose(shape_value(s, 1.0), 1.5, rel_tol=1e-15)
        assert math.isclose(shape_value(s, 0.4), 0.6, rel_tol=1e-15)

    def test_rate_at_quarter_period(self):
        L, d, T = 1.0, 0.7, 2.0
        g = Breather(ref_length=L, delta=d, period=T)
        r = g.rate_at(T / 4.0)
        assert math.isclose(r.seg_rates[0][1], d * math.pi / T, rel_tol=1e-12)

    def test_periodicity(self):
        g = Breather(ref_length=1.0, delta=0.3, period=0.7)
        assert g.shape_at(0.2).arc == g.shape_at(0.2 + 0.7).arc

    def test_custom_profile_requires_rate(self):
        with pytest.raises(ValueError):
            Breather(ref_length=1.0, delta=0.1, period=1.0, profile=lambda t: 1.0)

    def test_rejects_delta_collapsing_body(self):
        with pytest.raises(ValueError):
            Breather(ref_length=1.0, delta=-1.0, period=1.0)

    @pytest.mark.parametrize("delta", [1.0, 0.0])
    def test_rejects_a_bump_rate_that_is_not_finite(self, delta):
        # pi / 5e-324 overflows: every rate would be inf, or NaN at delta 0
        with pytest.raises(ValueError, match="period=5e-324"):
            Breather(ref_length=1.0, delta=delta, period=5e-324)
        with pytest.raises(ValueError, match="period=5e-324"):
            ConstantLength(1.0, 0.5, 0.3, 0.1 * delta, 5e-324)
        # a custom profile brings its own rate
        Breather(1.0, delta, 5e-324, profile=lambda t: 1.0, profile_rate=lambda t: 0.0)


class TestConstantLength:
    def test_three_nodes_fixed_total(self):
        g = ConstantLength(ref_length=1.0, split=0.5, seg1_rest=0.4, delta=0.2, period=1.0)
        s = g.shape_at(0.5)
        assert s.ref == (0.0, 0.5, 1.0)
        assert math.isclose(s.arc[1], 0.6, rel_tol=1e-15)
        assert s.arc[2] == 1.0

    def test_second_branch_interpolation(self):
        g = ConstantLength(ref_length=1.0, split=0.5, seg1_rest=0.4, delta=0.2, period=1.0)
        s = g.shape_at(0.0)  # l1 = 0.4
        # second segment maps [0.5, 1] onto [0.4, 1]
        assert math.isclose(shape_value(s, 0.75), 0.7, rel_tol=1e-15)

    def test_profile_bounds_validated(self):
        with pytest.raises(ValueError):
            ConstantLength(ref_length=1.0, split=0.5, seg1_rest=0.9, delta=0.2, period=1.0)


class TestSquareWave:
    def test_entering_stage_shape(self):
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        s = w.shape_at(0.1)
        assert math.isclose(shape_value(s, 0.05), 1.5 * 0.05, rel_tol=1e-14)
        assert math.isclose(shape_value(s, 0.5), 0.5 + 0.05, rel_tol=1e-14)

    def test_start_is_identity(self):
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        s = w.shape_at(0.0)
        assert s.ref == (0.0, 1.0) and s.arc == (0.0, 1.0)

    def test_length_branches(self):
        L, d, e, c = 1.0, 0.2, 0.5, 1.0
        w = SquareWave(ref_length=L, delta=d, epsilon=e, speed=c)
        assert math.isclose(w.shape_at(0.1).length, L + e * c * 0.1, rel_tol=1e-14)
        assert math.isclose(w.shape_at(0.5).length, L + e * d, rel_tol=1e-14)
        t = 1.1  # leaving stage
        assert math.isclose(w.shape_at(t).length, L + e * (L + d - c * t), rel_tol=1e-12)

    def test_periodicity(self):
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        T = w.period
        for t in (0.05, 0.3, 0.37, 0.62, 1.15):
            a, b = w.shape_at(t), w.shape_at(t + T)
            assert len(a.ref) == len(b.ref)
            for x, y in zip(a.ref + a.arc, b.ref + b.arc):
                assert math.isclose(x, y, rel_tol=0.0, abs_tol=1e-12)

    def test_inside_stage_two_value_rate(self):
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        r = w.rate_at(0.5)  # wave on [0.3, 0.5)
        values = {pair[0] for pair in r.seg_rates}
        assert values == {0.0, -0.5}

    def test_entering_stage_rates(self):
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        r = w.rate_at(0.1)
        assert r.seg_rates == ((0.0, 0.0), (0.5, 0.5))

    def test_contraction_wave_valid(self):
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=-0.5, speed=1.0)
        s = w.shape_at(0.1)
        assert s.length < 1.0

    def test_contraction_front_of_no_arc_length_is_merged(self):
        # At t = 5e-324 the stretched region's arc-length (1 + eps) * c * t
        # rounds to 0.0: it is dropped, as at t = 0, not left as a node at s = 0.
        w = SquareWave(ref_length=1.0, delta=0.25, epsilon=-0.5, speed=1.0)
        assert w.shape_at(5e-324) == w.shape_at(0.0)
        assert w.rate_at(5e-324) == w.rate_at(0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param(  # delta == L
                dict(ref_length=1.0, delta=1.0, epsilon=0.5, speed=1.0),
                "delta must satisfy 0 < delta < ref_length",
                id="kwargs0",
            ),
            pytest.param(
                dict(ref_length=1.0, delta=0.2, epsilon=-1.0, speed=1.0),
                "epsilon must be > -1 and nonzero",
                id="kwargs1",
            ),
            pytest.param(
                dict(ref_length=1.0, delta=0.2, epsilon=0.0, speed=1.0),
                "epsilon must be > -1 and nonzero",
                id="kwargs2",
            ),
            pytest.param(
                dict(ref_length=1.0, delta=0.2, epsilon=0.5, speed=0.0),
                "speed must be positive",
                id="kwargs3",
            ),
            pytest.param(
                dict(ref_length=0.0, delta=0.2, epsilon=0.5, speed=1.0),
                "ref_length must be positive",
                id="ref_length=0",
            ),
        ],
    )
    def test_invalid_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SquareWave(**kwargs)

    @pytest.mark.parametrize(
        "delta, epsilon",
        [
            (2.5e-17, 1.0),  # ct - delta rounds onto ct: two equal ref nodes at t = 0.5
            (1e-15, -0.9),  # the compressed width 1e-16 is lost in arc-length
        ],
    )
    def test_absorbed_width_rejected_naming_it(self, delta, epsilon):
        with pytest.raises(ValueError, match=rf"^delta={delta!r} is absorbed by ref_length=1.0: "):
            SquareWave(1.0, delta, epsilon, 1.0)

    @pytest.mark.parametrize(
        "wave",
        [
            # period 5e-324: at t = 0 shape_at took it as inside, with two equal ref nodes
            (3.9e-142, 1.68e-142, -0.68, 7.8e181),
            # c * t < delta at t = 1e-323, but t < delta / c put it inside
            (9.5e-43, 4.75e-43, 2.37, 4.28e280),
        ],
    )
    def test_subnormal_stage_time_rejected_naming_it(self, wave):
        L, delta, epsilon, speed = wave
        message = re.escape(f"delta={delta!r} / speed={speed!r} is subnormal")
        with pytest.raises(ValueError, match="^" + message):
            SquareWave(L, delta, epsilon, speed)

    @settings(max_examples=300)
    @given(
        L=st.floats(1e-200, 1e200),
        ulps=st.floats(0.5, 4.0),
        epsilon=st.sampled_from([-0.99, -0.9, -0.5, 1e-15, 0.5, 1.0, 3.0]),
        speed=st.floats(1e-3, 1e3),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_accepted_width_resolves_at_every_time(self, L, ulps, epsilon, speed, fractions):
        # widths of a few float spacings at L, in either coordinate
        delta = ulps * math.ulp(L) / min(1.0, 1.0 + epsilon)
        try:
            w = SquareWave(L, delta, epsilon, speed)
        except ValueError as exc:
            assert "is absorbed by ref_length" in str(exc)
            return
        corners = [t for c in w.corner_times() for t in (c, math.nextafter(c, math.inf))]
        for t in [f * w.period for f in fractions] + corners:
            w.shape_at(t)
            w.rate_at(t)


class TestRateFiniteDifferences:
    @pytest.mark.parametrize(
        "gait,samples",
        [
            (Breather(ref_length=1.0, delta=0.6, period=1.3), [(0.17, 0.8), (0.9, 0.4)]),
            (
                ConstantLength(ref_length=1.0, split=0.5, seg1_rest=0.4, delta=0.2, period=1.0),
                [(0.2, 0.3), (0.7, 0.8)],
            ),
            (
                SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0),
                [(0.5, 0.1), (0.5, 0.4), (0.5, 0.9), (0.1, 0.5), (1.1, 0.85)],
            ),
            (CompositeStride(lam=0.5, delta=0.4, h=2.0, period=1.0), [(0.1, 0.6), (0.6, 0.3)]),
        ],
    )
    def test_rate_matches_central_differences(self, gait, samples):
        h = 1e-6
        for t, X in samples:
            sp = gait.shape_at(t + h)
            sm = gait.shape_at(t - h)
            fd = (shape_value(sp, X) - shape_value(sm, X)) / (2.0 * h)
            shape = gait.shape_at(t)
            r = gait.rate_at(t)
            s_query = shape_value(shape, X)
            v = point_velocity(shape, r, 0.0, s_query)
            assert math.isclose(v, fd, rel_tol=1e-6, abs_tol=1e-7)


class TestTwoSegmentPath:
    def test_path_closure_required(self):
        with pytest.raises(ValueError):
            TwoSegmentPath(
                ref_length=1.0,
                split=0.5,
                times=(0.0, 1.0),
                l1=(0.4, 0.5),
                l2=(0.6, 0.6),
            )

    def test_interpolation(self):
        p = TwoSegmentPath(
            ref_length=1.0,
            split=0.5,
            times=(0.0, 1.0, 2.0),
            l1=(0.4, 0.6, 0.4),
            l2=(0.6, 0.7, 0.6),
        )
        s = p.shape_at(0.5)
        assert math.isclose(s.arc[1], 0.5, rel_tol=1e-15)
        assert math.isclose(s.arc[2], 0.5 + 0.65, rel_tol=1e-15)
        r = p.rate_at(0.5)
        (a0, a1), (b0, b1) = r.seg_rates
        assert a0 == 0.0
        assert math.isclose(a1, 0.2, rel_tol=1e-12)
        assert math.isclose(b0, 0.2, rel_tol=1e-12)
        assert math.isclose(b1, 0.3, rel_tol=1e-12)


    @pytest.mark.parametrize(
        "l1, l2, i",
        [((1e20, 1e20 + 1e5, 1e20), (1.0, 1.0, 1.0), 0), ((1.0, 1e20, 1.0), (1.0, 1e3, 1.0), 1)],
    )
    def test_absorbed_segment_rejected_naming_it(self, l1, l2, i):
        # l1 + l2 == l1 in floating point: the path has no second segment
        with pytest.raises(ValueError, match=rf"^l2\[{i}\]=.* is absorbed by l1\[{i}\]="):
            TwoSegmentPath(1.0, 0.5, (0.0, 1.0, 2.0), l1, l2)

    def test_absorbed_stride_segment_rejected(self):
        with pytest.raises(ValueError, match=r"lam, delta, h and period give no valid path: l2\[0\]"):
            CompositeStride(lam=1.0, delta=1e20, h=2.0)


class TestCompositeStride:
    def test_vertices_visited_in_order(self):
        g = CompositeStride(lam=1.0, delta=1.0, h=2.0, period=4.0)
        expected = [(2.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 2.0), (2.0, 1.0)]
        for t, (l1, l2) in zip((0.0, 1.0, 2.0, 3.0, 4.0 - 1e-12), expected):
            s = g.shape_at(t)
            assert math.isclose(s.arc[1], l1, rel_tol=1e-9)
            assert math.isclose(s.arc[2] - s.arc[1], l2, rel_tol=1e-9)

    def test_scaling_edges_proportional(self):
        g = CompositeStride(lam=0.7, delta=0.3, h=3.0, period=1.0)
        # along the scale-up edge the two segment lengths keep a fixed ratio
        for t in (0.26, 0.35, 0.49):
            s = g.shape_at(t)
            l1, l2 = s.arc[1], s.arc[2] - s.arc[1]
            assert math.isclose(l1 / l2, 0.7 / 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param(dict(lam=0.0, delta=1.0, h=2.0), "lam and delta must be positive", id="kwargs0"),
            pytest.param(dict(lam=1.0, delta=-0.1, h=2.0), "lam and delta must be positive", id="kwargs1"),
            pytest.param(dict(lam=1.0, delta=1.0, h=1.0), "h must exceed 1", id="kwargs2"),
            pytest.param(
                dict(lam=1.0, delta=1.0, h=2.0, period=0.0), "period must be positive", id="period=0"
            ),
        ],
    )
    def test_invalid_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CompositeStride(**kwargs)

    def test_builds_where_the_squared_size_overflows(self):
        # h * (lam + delta) = 3e154, whose square is past the float range
        g = CompositeStride(lam=1e154, delta=5e153, h=2.0)
        assert g.corner_times() == (0.0, 0.25, 0.5, 0.75, 1.0)
        arc = g.shape_at(0.5).arc
        assert arc[1] == 2e154
        assert math.isclose(arc[2], 5e154, rel_tol=1e-15)


class TestZeroCrossings:
    def test_stick_slip_wave_interval(self):
        # entering: the undeformed region ahead of the wave rests while the
        # stretched front slips back at the wave speed
        law = FrictionLaw(0.75, 0.25, 0.0, 0.0)
        w = SquareWave(ref_length=1.0, delta=0.2, epsilon=0.5, speed=1.0)
        shape, rate = w.shape_at(0.1), w.rate_at(0.1)
        sol = solve_velocity(law, shape, rate)
        assert sol.x1dot == -0.5
        assert sol.regime == STICK_SLIP
        assert len(sol.stick_intervals) == 1  # the undeformed region is at rest
        lo, hi = sol.stick_intervals[0]
        assert math.isclose(lo, 0.15, rel_tol=1e-12)
        assert math.isclose(hi, 1.05, rel_tol=1e-12)
        assert point_velocity(shape, rate, sol.x1dot, 0.5 * (lo + hi)) == 0.0
        assert point_velocity(shape, rate, sol.x1dot, 0.5 * lo) < 0.0


class TestModuleOps:
    def test_length_examples(self):
        assert PiecewiseAffineShape((0.0, 1.0), (0.0, 1.0)).length == 1.0
        assert PiecewiseAffineShape((0.0, 1.0), (0.0, 1.3)).length == 1.3
