"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads cycles,trajectory,cli]
        [--seeds 1-10] [--seconds S]

Runs the benchmark once per seed and workload (``--trace 0``), then prints,
per metric, the median of the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of that
median, next to the metric's bound from ``BENCHMARK.json``.  A benchmark is
steady when every spread except ``setup_s``'s is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
        for name, bound in bounds.items():
            median, rel = spread([r[name] for r in runs])
            flag = "" if rel <= bound / 3 else ("  > bound/3" if rel <= bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, rel / bound)
            print(f"  {workload:10s} {name:18s} median {median:11.5g}  "
                  f"IQR/median {rel:7.4f}  bound {bound}{flag}", flush=True)
    print(f"worst spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
