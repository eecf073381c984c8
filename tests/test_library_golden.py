"""Golden guard for the library's numeric results.

``test_golden.py`` pins the CLI's output bytes; this pins what the library
returns, bit for bit, on the benchmark's own inputs (``perfbench/inputs.py``,
``trajectory`` rotation, seeds 101-103 across all 15 gait-by-law classes):

* ``cycles``: default (Gauss–Kronrod) cycles: net displacement, the
  per-stage contributions with their labels, the closed-form value,
  ``n_steps`` and ``residual_max``;
* ``cycles_dt400``: the same on the midpoint grid at ``dt = period/400``;
* ``verify``: every check of ``engine.verify``, or the error it raises
  (type and message);
* ``simulate``: the bytes of the ``times``, ``x1``, ``x2`` and ``l`` arrays
  of a 2-period ``simulate``, plus its regimes;
* ``simulate_dt5003``: the same at ``dt = period/5003``, whose period 0
  (5003+ steps) the midpoint kernel solves in three blocks.

Floats enter the digests through ``float.hex``, so any change in any bit
shows.  A change to a digest is a behaviour change: regenerate them only on
purpose, with::

    PYTHONPATH=src python tests/test_library_golden.py

``--records PATH`` writes the per-input records behind the digests to
``PATH`` instead (keep it outside the checkout); run it on two checkouts
and diff the files to see which inputs moved, and by how much.  Beside the
``simulate`` bytes' SHA-256, each input's record lists the hex net
displacement, the hex last length and the regime counts of its trajectory,
which no digest reads; the ``simulate_dt5003`` bytes are listed the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dircrawl
from dircrawl import engine

pytestmark = pytest.mark.bits

GOLDEN = Path(__file__).with_name("golden_library.json")
SEEDS = (101, 102, 103)

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
inputs = sys.modules.get(_spec.name)
if inputs is None:
    inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(inputs)


def _hex(x) -> str:
    return "None" if x is None else float(x).hex()


def _cycle(report: engine.CycleReport) -> str:
    parts = [
        _hex(report.net_displacement),
        *(f"{label}={_hex(v)}" for label, v in report.contributions),
        _hex(report.analytic_value),
        str(report.n_steps),
        _hex(report.meta["residual_max"]),
    ]
    return " ".join(parts)


def _verify(law, gait) -> str:
    try:
        report = engine.verify(law, gait)
    except Exception as exc:  # the error is part of the result
        return f"{type(exc).__name__}: {exc}"
    return " ".join(
        f"{c.name}:{_hex(c.numeric)}:{_hex(c.analytic)}:{c.passed}" for c in report.checks
    )


# The kinds of result the digests cover; a record's other entries are for reading.
KINDS = ("cycles", "cycles_dt400", "verify", "simulate", "simulate_dt5003")


def _trajectory(traj: engine.Trajectory) -> bytes:
    arrays = b"".join(a.tobytes() for a in (traj.times, traj.x1, traj.x2, traj.l))
    return arrays + ",".join(traj.regimes).encode()


def records():
    """Per input, in order: its tag and its record of each kind of result,
    then the ``simulate`` summary lines."""
    for seed in SEEDS:
        for case in inputs.rotation(seed, "trajectory", 0, dircrawl):
            law, gait = case.build(dircrawl)
            traj = engine.simulate(law, gait, n_periods=2)
            counts = ",".join(f"{k}={v}" for k, v in traj.meta["regime_counts"].items())
            yield f"{seed}/{case.cls}", {
                "cycles": _cycle(engine.cycle_displacement(law, gait)).encode(),
                "cycles_dt400": _cycle(
                    engine.cycle_displacement(law, gait, dt=gait.period / 400)
                ).encode(),
                "verify": _verify(law, gait).encode(),
                "simulate": _trajectory(traj),
                "simulate_dt5003": _trajectory(
                    engine.simulate(law, gait, n_periods=2, dt=gait.period / 5003)
                ),
                "simulate.net": _hex(traj.net_displacement).encode(),
                "simulate.last_l": _hex(traj.l[-1]).encode(),
                "simulate.regimes": counts.encode(),
            }


def digests() -> dict[str, str]:
    """One SHA-256 per kind of result, over every input in order."""
    hashes = {name: hashlib.sha256() for name in KINDS}
    for tag, record in records():
        for name, h in hashes.items():
            h.update(f"{tag}|".encode())
            h.update(record[name])
    return {name: h.hexdigest() for name, h in hashes.items()}


def write_records(path: Path) -> None:
    """One line per input and kind, ``tag kind record``, the ``simulate``
    bytes as their SHA-256: diff two files to see which case moved."""
    hashed = ("simulate", "simulate_dt5003")
    with path.open("w", encoding="utf-8") as out:
        for tag, record in records():
            for name, data in record.items():
                text = hashlib.sha256(data).hexdigest() if name in hashed else data.decode()
                out.write(f"{tag} {name} {text}\n")


def test_library_results_unchanged():
    assert digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the library digests.")
    parser.add_argument(
        "--records",
        metavar="PATH",
        type=Path,
        help="write each input's records behind the digests to PATH instead",
    )
    args = parser.parse_args()
    if args.records is not None:
        write_records(args.records)
    else:
        GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
