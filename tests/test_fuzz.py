"""Fuzz of the input contract, finite extremes included.

* CLI: any configuration either runs or is rejected.  The exit code is 0,
  1 (a solver failure or a failed verification) or 2 (a configuration
  error); stderr holds at most one line and never a traceback; every
  number printed on exit 0 is finite.  Huge step counts are reached only
  through ``numeric.dt = 1e-300``, which the step cap rejects before any
  grid is built.
* Library: each entry point, on finite inputs with magnitudes from 1e-300
  to 1e300, returns finite values or raises ``ValueError`` (or a subclass)
  or ``DegenerateSubstrateError``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dircrawl import analytic, engine
from dircrawl.body import Breather, CompositeStride, ConstantLength, SquareWave, TwoSegmentPath
from dircrawl.cli import main
from dircrawl.errors import DegenerateSubstrateError
from dircrawl.friction import FrictionLaw

_ALLOWED = (ValueError, DegenerateSubstrateError)

# 1e-300 .. 1e300, and plain values near 1
_MAG = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300))
_POS = st.one_of(_MAG, st.floats(0.01, 10.0))
_NUM = st.one_of(_POS, _POS.map(lambda v: -v), st.just(0.0))
_FRAC = st.floats(0.01, 0.99)
_COEF = st.one_of(st.just(0.0), _POS)


@st.composite
def _gait_block(draw) -> tuple[dict, float]:
    """A ``gait`` block, mostly in its domain, and its period when known."""
    kind = draw(st.sampled_from(
        ["breather", "constant_length", "two_segment", "composite_stride", "square_wave"]
    ))
    L, T = draw(_POS), draw(_POS)
    if kind == "breather":
        return {"kind": kind, "L": L, "delta": draw(_NUM), "T": T}, T
    if kind == "constant_length":
        rest = L * draw(_FRAC)
        block = {"kind": kind, "L": L, "x_star": L * draw(_FRAC), "l1_rest": rest,
                 "delta": draw(st.one_of(_NUM, st.floats(-1.0, 1.0).map(lambda f: f * rest))),
                 "T": T}
        return block, T
    if kind == "two_segment":
        t1 = draw(_POS)
        times = [0.0, t1, t1 + draw(_POS)]
        l1 = [draw(_POS), draw(_POS)]
        l2 = [draw(_POS), draw(_POS)]
        block = {"kind": kind, "L": L, "x_star": L * draw(_FRAC), "times": times,
                 "l1": [*l1, l1[0]], "l2": [*l2, l2[0]]}
        return block, times[-1]
    if kind == "composite_stride":
        block = {"kind": kind, "lambda": draw(_POS), "delta": draw(_POS),
                 "h": 1.0 + draw(_POS), "T": T}
        return block, T
    delta = L * draw(_FRAC)
    c = draw(_POS)
    block = {"kind": kind, "L": L, "delta": delta, "epsilon": draw(st.one_of(
        _NUM, st.floats(-0.99, 2.0))), "c": c}
    if draw(st.booleans()):
        block["regime"] = draw(st.sampled_from(["stick_slip", "sliding"]))
    return block, (L + delta) / c


_LAW_KEYS = ("tau_minus", "tau_plus", "mu_minus", "mu_plus")


@st.composite
def _configs(draw) -> tuple[str, dict]:
    command = draw(st.sampled_from(["simulate", "analytic", "verify", "sweep"]))
    gait, period = draw(_gait_block())
    cfg = {
        "schema": 1,
        "substrate": {k: draw(_COEF) for k in _LAW_KEYS},
        "gait": gait,
        "output": {"format": draw(st.sampled_from(["csv", "json"]))},
    }
    numeric = {"n_periods": draw(st.integers(1, 2))}
    dt = draw(st.sampled_from([None, "grid", "cap"]))
    if dt == "cap":
        numeric["dt"] = 1e-300
    elif dt == "grid" and math.isfinite(period / 8):
        numeric["dt"] = period / draw(st.integers(2, 200))
    cfg["numeric"] = numeric
    if command == "sweep":
        keys = [f"law.{k}" for k in _LAW_KEYS] + [f"gait.{k}" for k in gait if k != "kind"]
        path = draw(st.sampled_from([*keys, "gait.bogus"]))
        cfg["sweep"] = {"axes": [{"path": path, "values": draw(st.lists(_NUM, min_size=1,
                                                                        max_size=2))}]}
    return command, cfg


def _numbers_finite(text: str, out_format: str) -> bool:
    if out_format == "json":
        constants = []  # NaN, Infinity, -Infinity
        json.loads(text, parse_constant=constants.append)
        return not constants
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # a regime or an error message
            if not math.isfinite(value):
                return False
    return True


@settings(
    max_examples=120, deadline=5000, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_configs())
def test_cli_exit_codes_and_outputs(case, tmp_path, capsys):
    command, cfg = case
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 0:
        assert lines == []
        fmt = cfg["output"]["format"] if command == "simulate" else "json"
        assert _numbers_finite(out, "csv" if command == "sweep" else fmt), out
    elif code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("config error: "), err
    else:
        assert len(lines) <= 1
        assert lines or command == "verify", err


# ---------------------------------------------------------------------------
# Library
# ---------------------------------------------------------------------------


def _law_or_none(values):
    try:
        return FrictionLaw(*values)
    except ValueError:
        return None


_LAWS = st.tuples(_COEF, _COEF, _COEF, _COEF).map(_law_or_none).filter(lambda x: x is not None)


def _build(cls, *args):
    try:
        return cls(*args)
    except ValueError:
        return None


_GAITS = st.one_of(
    st.builds(lambda L, d, T: _build(Breather, L, d, T), _POS, _NUM, _POS),
    st.builds(
        lambda L, s, r, d, T: _build(ConstantLength, L, L * s, L * r, d * L * r, T),
        _POS, _FRAC, _FRAC, st.floats(-1.0, 1.0), _POS,
    ),
    st.builds(
        lambda L, s, t, a, b, c, d: _build(
            TwoSegmentPath, L, L * s, (0.0, t, 2.0 * t), (a, b, a), (c, d, c)
        ),
        _POS, _FRAC, _POS, _POS, _POS, _POS, _POS,
    ),
    st.builds(lambda lam, d, h, T: _build(CompositeStride, lam, d, 1.0 + h, T),
              _POS, _POS, _POS, _POS),
    st.builds(lambda L, f, e, c: _build(SquareWave, L, f * L, e, c),
              _POS, _FRAC, st.one_of(_NUM, st.floats(-0.99, 2.0)), _POS),
).filter(lambda g: g is not None)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


@settings(max_examples=120, deadline=5000)
@given(law=_LAWS, gait=_GAITS)
def test_engine_entry_points(law, gait):
    try:
        report = engine.cycle_displacement(law, gait)
    except _ALLOWED:
        pass
    else:
        assert _finite(report.net_displacement, *(v for _, v in report.contributions))
        if report.analytic_value is not None:
            assert _finite(report.analytic_value, report.abs_residual)
    try:
        checks = engine.verify(law, gait).checks
    except _ALLOWED:
        pass
    else:
        assert all(_finite(c.numeric, c.analytic, c.residual) for c in checks)
    try:
        traj = engine.simulate(law, gait, dt=gait.period / 64)
    except _ALLOWED:
        pass
    else:
        assert all(np.isfinite(a).all() for a in (traj.times, traj.x1, traj.x2, traj.l))


@settings(max_examples=300, deadline=2000)
@given(law=_LAWS, ldot=_NUM.filter(lambda v: v != 0.0))
def test_breather_velocity(law, ldot):
    try:
        v = analytic.breather_velocity(law, ldot)
    except _ALLOWED:
        return
    assert _finite(v)


@settings(max_examples=300, deadline=2000)
@given(law=_LAWS, eps=_NUM, c=_POS, frac=_FRAC, L=_POS)
def test_wave_closed_forms(law, eps, c, frac, L):
    delta = frac * L
    try:
        adm = analytic.wave_admissibility(law, eps, c, delta, L)
    except _ALLOWED:
        return
    try:
        if adm.regime == "stick_slip":
            assert _finite(analytic.stickslip_displacement(eps, delta))
        elif adm.regime == "sliding":
            sliding = analytic.sliding_cycle_displacement(law, eps, c, delta, L)
            assert _finite(sliding.total, sliding.enter, sliding.inside, sliding.exit)
    except _ALLOWED:
        pass


@settings(max_examples=300, deadline=2000)
@given(law=_LAWS, lam=_POS, delta=_POS, h=_POS)
def test_stride_closed_form(law, lam, delta, h):
    try:
        stride = analytic.composite_stride_displacement(law, lam, delta, 1.0 + h)
    except _ALLOWED:
        return
    assert _finite(stride.total, *stride.edges)
