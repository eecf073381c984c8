"""The package's public surface, and which imports load numpy.

``dircrawl.__all__`` is pinned to a literal list, so any change to the
public surface is a deliberate edit of that list.

Only the midpoint grid loads numpy.

``dircrawl.midpoint`` is the one module that imports numpy, and only
``simulate`` and cycles with an explicit ``dt`` import it.  So the package
and the scalar CLI commands (closed forms, stage-wise cycles, figure tables)
start without loading numpy.  Each case runs in a fresh interpreter and
reports whether ``numpy`` is in ``sys.modules`` after ``import dircrawl``,
after ``import dircrawl.cli`` and after the command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import json, sys
loaded = []
import dircrawl
loaded.append("numpy" in sys.modules)
import dircrawl.cli
loaded.append("numpy" in sys.modules)
argv = json.loads(sys.argv[1])
if argv:
    assert dircrawl.cli.main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""

_CONFIG = {
    "schema": 1,
    "substrate": {"tau_minus": 0.75, "tau_plus": 0.25, "mu_minus": 0.0, "mu_plus": 0.0},
    "gait": {"kind": "breather", "L": 1.0, "delta": 1.0, "T": 1.0},
}
_SWEEP = {**_CONFIG, "sweep": {"axes": [{"path": "gait.delta", "values": [0.5, 1.0, 1.5]}]}}


def _loaded(argv: list[str]) -> list[bool]:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "command, config, extra",
    [
        (None, None, []),
        ("analytic", _CONFIG, []),
        ("verify", _CONFIG, []),
        ("sweep", _SWEEP, []),
        ("figure", None, ["fig6"]),
        ("figure", None, ["fig7"]),
    ],
)
def test_scalar_paths_never_load_numpy(tmp_path, command, config, extra):
    argv = [] if command is None else [command, *extra, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert _loaded(argv) == [False] * (2 if command is None else 3)


@pytest.mark.parametrize("command, extra", [("simulate", []), ("analytic", ["--dt", "0.001"])])
def test_midpoint_grid_loads_numpy(tmp_path, command, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIG), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra]
    assert _loaded(argv) == [False, False, True]


_PUBLIC = [
    "BalanceSolution", "Breather", "BreatherRoots", "CompositeStride", "ConfigError",
    "ConstantLength", "CycleReport", "DegenerateSubstrateError", "DirectionalPair",
    "ForceValue", "FrictionLaw", "GaitProgram", "MixedRheologyError",
    "PiecewiseAffineShape", "RegimeMismatchError", "SLIDING", "STICK_SLIP", "ShapeRate",
    "SlidingDisplacement", "SquareWave", "StepLimitError", "StrideDisplacement",
    "SweepRow", "Trajectory", "TwoSegmentPath", "UnsupportedPairError", "VerifyReport",
    "WHOLE_BODY_STICK", "WaveAdmissibility", "__version__", "alpha", "beta",
    "breather_cycle_displacement", "breather_roots", "breather_velocity",
    "composite_stride_displacement", "cycle_displacement", "directional_pair", "evaluate",
    "figure6_data", "figure7_data", "negative_displacement_feasible",
    "newtonian_sliding_displacement", "scale", "simulate", "sliding_cycle_displacement",
    "sliding_stage_velocity", "solve_velocity", "stickslip_displacement",
    "stickslip_max_displacement_dry", "sweep", "total_force", "verify",
    "wave_admissibility",
]


def test_public_surface_is_pinned():
    import dircrawl

    assert sorted(dircrawl.__all__) == _PUBLIC
    missing = [name for name in _PUBLIC if not hasattr(dircrawl, name)]
    assert missing == []
