"""Golden byte guard for the CLI outputs that run on the midpoint grid.

``simulate`` at its default step (over one period, and over three for two
of the families, so that the grid times offset by whole periods are covered
too), and ``analytic``/``verify``/``sweep`` with an explicit ``numeric.dt``,
all integrate on the fixed midpoint grid, so
their output bytes are a contract: any change to them is a behaviour change.
The ``figure`` tables, closed forms printed row by row, are pinned the same
way, at their defaults and with custom flags.
Each case is run through ``main`` and the SHA-256 of the produced file is
compared with ``golden_cli.json``.

The mixed-law breather families are covered by ``simulate`` only: their
closed form is a quadrature, whose last digits are not part of the contract
(they are checked against oracles to 1e-10 elsewhere).

Regenerate the digests, deliberately, with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from dircrawl.cli import main

pytestmark = pytest.mark.bits

GOLDEN = Path(__file__).with_name("golden_cli.json")

_DRY = {"tau_minus": 0.75, "tau_plus": 0.25, "mu_minus": 0.0, "mu_plus": 0.0}
_NEWTONIAN = {"tau_minus": 0.0, "tau_plus": 0.0, "mu_minus": 4.0, "mu_plus": 1.0}
_MIXED = {"tau_minus": 1.0, "tau_plus": 0.5, "mu_minus": 1.0, "mu_plus": 0.5}
_SLIDING = {"tau_minus": 1.0, "tau_plus": 0.0, "mu_minus": 1.0, "mu_plus": 1.0}
_STICK = {"tau_minus": 1.0, "tau_plus": 1.0, "mu_minus": 0.0, "mu_plus": 0.0}

_GAITS = {
    "breather": {"kind": "breather", "L": 1.0, "delta": 1.0, "T": 1.0},
    "constant_length": {
        "kind": "constant_length", "L": 1.0, "x_star": 0.5, "l1_rest": 0.4, "delta": 0.3, "T": 1.0,
    },
    "two_segment": {
        "kind": "two_segment", "L": 1.0, "x_star": 0.5,
        "times": [0.0, 0.4, 1.0], "l1": [0.4, 0.6, 0.4], "l2": [0.5, 0.55, 0.5],
    },
    "composite_stride": {"kind": "composite_stride", "lambda": 0.5, "delta": 0.5, "h": 2.0, "T": 1.0},
    "sliding_wave": {"kind": "square_wave", "L": 1.0, "delta": 0.2, "epsilon": 1.0, "c": 1.0},
    "stick_slip_wave": {"kind": "square_wave", "L": 1.0, "delta": 0.2, "epsilon": -0.5, "c": 1.5},
    "infeasible_wave": {"kind": "square_wave", "L": 1.0, "delta": 0.9, "epsilon": 1.0, "c": 1.0},
}

# name -> (command, substrate, gait, numeric.dt, sweep axes)
CASES = {
    "simulate/breather_dry": ("simulate", _DRY, "breather", None, None),
    "simulate/breather_mixed": ("simulate", _MIXED, "breather", None, None),
    "simulate/constant_length_mixed": ("simulate", _MIXED, "constant_length", None, None),
    "simulate/two_segment_dry": ("simulate", _DRY, "two_segment", None, None),
    "simulate/composite_stride_newtonian": ("simulate", _NEWTONIAN, "composite_stride", None, None),
    "simulate/sliding_wave": ("simulate", _SLIDING, "sliding_wave", None, None),
    "simulate/stick_slip_wave": ("simulate", _STICK, "stick_slip_wave", None, None),
    "simulate/breather_mixed_3_periods": ("simulate", _MIXED, "breather", None, None),
    "simulate/stick_slip_wave_3_periods": ("simulate", _STICK, "stick_slip_wave", None, None),
    "analytic/breather_dry": ("analytic", _DRY, "breather", 0.0005, None),
    "analytic/constant_length_newtonian": ("analytic", _NEWTONIAN, "constant_length", 0.0005, None),
    "analytic/two_segment_dry": ("analytic", _DRY, "two_segment", 0.0005, None),
    "analytic/composite_stride_mixed": ("analytic", _MIXED, "composite_stride", 0.0005, None),
    "analytic/sliding_wave": ("analytic", _SLIDING, "sliding_wave", 0.0006, None),
    "analytic/infeasible_wave": ("analytic", _SLIDING, "infeasible_wave", 0.00095, None),
    "verify/breather_newtonian": ("verify", _NEWTONIAN, "breather", 0.0005, None),
    "verify/composite_stride_dry": ("verify", _DRY, "composite_stride", 0.0005, None),
    "verify/constant_length_dry": ("verify", _DRY, "constant_length", 0.0005, None),
    "verify/sliding_wave": ("verify", _SLIDING, "sliding_wave", 0.0006, None),
    "verify/stick_slip_wave": ("verify", _STICK, "stick_slip_wave", 0.0004, None),
    "sweep/breather_dry": ("sweep", _DRY, "breather", 0.001, [("gait.delta", [0.5, 1.0])]),
    "sweep/constant_length_newtonian": (
        "sweep", _NEWTONIAN, "constant_length", 0.001, [("gait.T", [0.5, 1.0, 2.0])]
    ),
    "sweep/wave": (
        "sweep", _STICK, "stick_slip_wave", 0.001,
        [("gait.epsilon", [-0.5, 0.5]), ("gait.delta", [0.1, 0.2, 0.9])],
    ),
}

# name -> numeric.n_periods, for the cases that run more than one period
N_PERIODS = {
    "simulate/breather_mixed_3_periods": 3,
    "simulate/stick_slip_wave_3_periods": 3,
}

# name -> arguments of a ``figure`` case, which reads no configuration
FIGURES = {
    "figure/fig6": ("fig6",),
    "figure/fig6_custom": (
        "fig6", "--alphas", "0.3,0.6", "--epsilons=-0.5,0.25,1.5",
    ),
    "figure/fig7": ("fig7",),
    "figure/fig7_custom": (
        "fig7", "--betas-squared", "0.3,3", "--epsilons=-0.7,0.4,2", "--delta-over-l", "0.4",
    ),
}
NAMES = sorted([*CASES, *FIGURES])


def render(name: str, workdir: Path) -> bytes:
    """Output bytes of one golden case, run through the CLI entry point."""
    stem = name.replace("/", "_")
    out_path = workdir / f"{stem}.out"
    if name in FIGURES:
        assert main(["figure", *FIGURES[name], "--out", str(out_path)]) == 0, name
        return out_path.read_bytes()
    command, substrate, gait, dt, axes = CASES[name]
    cfg = {"schema": 1, "substrate": substrate, "gait": _GAITS[gait]}
    if dt is not None:
        cfg["numeric"] = {"dt": dt}
    if name in N_PERIODS:
        cfg["numeric"] = {"n_periods": N_PERIODS[name]}
    if axes is not None:
        cfg["sweep"] = {"axes": [{"path": p, "values": v} for p, v in axes]}
    cfg_path = workdir / f"{stem}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main([command, "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0, f"{name}: exit {code}"
    return out_path.read_bytes()


def digest(data: bytes) -> dict[str, object]:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("name", NAMES)
def test_cli_output_bytes_unchanged(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(render(name, tmp_path)) == golden[name]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == NAMES


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digest(render(name, Path(tmp))) for name in NAMES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
