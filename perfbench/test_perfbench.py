"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run real (short) benchmark runs, about a minute in all, and are not
part of the package's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNTS = [n for n in PER_LAYER if "calls" in n or n == "cli.bytes_out_per_op"]


def _run(capsys, *argv: str) -> dict:
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, result
    return result


@pytest.fixture
def short(monkeypatch):
    """One rotation per run and a single set-up probe."""
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload(capsys, short, workload):
    result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"]
        assert metric["value"] > 0

    traced = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
                  "--trace", "1")
    assert traced["correct"] and set(traced["metrics"]) == set(PER_LAYER)


def test_traced_counts_repeat_exactly(capsys):
    argv = ("--workload", "cycles", "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = (_run(capsys, *argv)["metrics"] for _ in range(2))
    for name in [*COUNTS, "balance.residual_max", "balance.stick_slip_frac"]:
        assert first[name]["value"] == second[name]["value"], name
    # The layers' self times cover the traced op time, up to the tracing cost.
    assert first["trace.unaccounted_frac"]["value"] < first["trace.overhead_frac"]["value"]


def test_two_seeds_within_bounds(capsys):
    seconds = str(SPEC["run_seconds"])
    a, b = (
        _run(capsys, "--workload", "cycles", "--seed", seed, "--seconds", seconds)["metrics"]
        for seed in ("11", "12")
    )
    for name, spec in END_TO_END.items():
        lo, hi = sorted((a[name]["value"], b[name]["value"]))
        assert hi / lo - 1.0 <= spec["bound"], (name, lo, hi)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
