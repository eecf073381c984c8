"""dircrawl benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {cycles,trajectory,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  The last line of stdout is the result JSON:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  The line before it is the run record (host, versions, raw wall
times, kernel spread), also written to ``.perfbench_out/``.  Exit status is
0 when every op was checked correct, 1 when any op failed, 2 when the
benchmark could not start.

Every gated timing is normalized by a reference kernel (see kernel.py and
README.md): an op's wall time times the kernel's nominal time over the
kernel time measured next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import kernel
from layertrace import LAYERS, import_dircrawl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest ops in a run, so p90 has >= 10 samples beyond it.
MIN_OPS = 100
#: A run stops starting rotations after this long, whatever MIN_OPS says.
HARD_CAP_S = 120.0
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: Traced runs execute round(seconds / this) whole rotations, a count fixed
#: by --seconds alone so two traced runs at one seed do identical work.
TRACE_ROTATION_S = {"cycles": 2.5, "trajectory": 5.0, "cli": 4.0}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cycles", "trajectory", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up (import, inputs, one warm-up op) and exit; timed by the parent run",
    )
    return p.parse_args(argv)


class _Clock:
    """Kernel-bracketed timing: each op is normalized by the mean of the
    kernel times measured just before and just after it.  ``process`` selects
    the process kernel, for timings that start processes."""

    def __init__(self, process: bool = False) -> None:
        self.measure = kernel.measure_process_ms if process else kernel.measure_ms
        self.nominal = kernel.NOMINAL_PROCESS_MS if process else kernel.NOMINAL_MS
        self.kernels = [self.measure()]

    def restart(self) -> None:
        self.kernels.append(self.measure())

    def factor(self) -> float:
        """Measure the kernel after an op; return that op's scale factor."""
        self.kernels.append(self.measure())
        return self.nominal / (0.5 * (self.kernels[-2] + self.kernels[-1]))


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dircrawl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _run_ops(wl, ops, clock: _Clock, failures: list[str], traced: bool) -> list:
    """Run one rotation back to back, then check it.

    Returns, per passed op, ``(op, raw_ns, factor, traced)`` with ``traced``
    = ``(raw_ns, snapshot, stdout_bytes)`` in a traced run, where both
    executions share the factor.  Results are dropped once checked, so the
    benchmark's own memory does not grow with the run."""
    clock.restart()
    done: list[list] = []
    group: list[list] = []
    for op in ops:
        raw, result, _ = _timed(wl, op, False)
        entry = [op, raw, None, result, None]  # the factor is filled in below
        if traced and raw is not None:
            entry[4] = _timed(wl, op, True)
        done.append(entry)
        group.append(entry)
        # A traced run kernels every op: one untraced and one traced execution.
        if traced or len(group) == wl.ops_per_kernel or op is ops[-1]:
            f = clock.factor()
            for e in group:
                e[2] = f
            group = []
    out = []
    for op, raw, f, result, traced_part in done:
        err = _check(wl, op, result)
        light = None
        if err is None and traced_part is not None:
            t_raw, t_result, snap = traced_part
            err = _check(wl, op, t_result) or (None if snap is not None else "no trace recorded")
            light = (t_raw, snap, len(getattr(t_result, "stdout", b"")))
        if err is not None:
            failures.append(f"{wl.label(op)}: {err}")
            continue
        out.append((op, raw, f, light))
    return out


def _timed(wl, op, traced: bool) -> tuple:
    """``(raw_ns, result, snapshot)``; an op that raises is a failed op."""
    try:
        return wl.timed(op, traced=traced)
    except Exception as exc:
        return None, exc, None


def _check(wl, op, result) -> str | None:
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    try:
        return wl.check(op, result)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def _setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time SETUP_PROBES fresh interpreters doing the run's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    clock = _Clock(process=True)
    normalized, raw = [], []
    for _ in range(SETUP_PROBES):
        wall, proc = kernel.run_child(cmd)
        dt = wall / 1e9
        f = clock.factor()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        raw.append(dt)
        normalized.append(dt * f)
    return normalized, raw


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _end_to_end(wl, args, clock, done, failures, import_ms) -> tuple[dict, dict]:
    norm = [raw / 1e6 * f for _, raw, f, _ in done]
    peak = _peak_rss_mb(wl.rss_children)
    setup_norm, setup_raw = _setup_probes(args.workload, args.seed)
    metrics = {
        "throughput_per_s": (len(norm) / (sum(norm) / 1000.0), "1/s"),
        "p50_ms": (statistics.median(norm), "ms"),
        "p90_ms": (statistics.quantiles(norm, n=10)[8], "ms"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (statistics.median(setup_norm), "s"),
    }
    raw_ms = [raw / 1e6 for _, raw, _, _ in done]
    raw = {
        "op_p50_ms": statistics.median(raw_ms),
        "op_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
        "ops_wall_s": sum(raw_ms) / 1000.0,
        "setup_wall_s": setup_raw,
        "setup_normalized_s": setup_norm,
        "import_ms": import_ms,
    }
    return metrics, raw


def _per_layer(wl, done, import_ms) -> tuple[dict, dict]:
    n = len(done)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, float] = {}
    untraced_ms = traced_ms = residual_max = 0.0
    regimes: dict[str, int] = {}
    child_import_ms: list[float] = []
    bytes_out = 0
    ops = []
    for op, raw, f, (t_raw, snap, n_bytes) in done:
        untraced_ms += raw / 1e6 * f
        traced_ms += t_raw / 1e6 * f
        op_self = {layer: ns / 1e6 * f for layer, ns in snap["self_ns"].items()}
        ops.append({"op": wl.label(op), "untraced_ms": raw / 1e6 * f,
                    "traced_ms": t_raw / 1e6 * f, "self_ms": op_self, "calls": snap["calls"]})
        for layer, ms in op_self.items():
            self_ms[layer] += ms
        for key, c in snap["calls"].items():
            calls[key] = calls.get(key, 0) + c
        for key, c in snap["regimes"].items():
            regimes[key] = regimes.get(key, 0) + c
        residual_max = max(residual_max, snap["residual_max"])
        if "import_ns" in snap:
            child_import_ms.append(snap["import_ns"] / 1e6 * f)
        bytes_out += n_bytes
    solves = calls.get("balance.solve_velocity", 0)
    per_solve = (lambda x: x / solves) if solves else (lambda x: 0.0)
    metrics = {
        "balance.solve_velocity.calls_per_op": (solves / n, "count"),
        "balance.total_force.calls_per_solve": (per_solve(calls.get("balance.total_force", 0)), "count"),
        "balance.us_per_solve": (per_solve(self_ms["balance"] * 1e3), "us"),
        "balance.self_ms_per_op": (self_ms["balance"] / n, "ms"),
        "balance.residual_max": (residual_max, "force"),
        "balance.stick_slip_frac": (per_solve(regimes.get("stick_slip", 0)), "fraction"),
        "body.shape_at.calls_per_op": (calls.get("body.shape_at", 0) / n, "count"),
        "body.rate_at.calls_per_op": (calls.get("body.rate_at", 0) / n, "count"),
        "body.self_ms_per_op": (self_ms["body"] / n, "ms"),
        "analytic.calls_per_op": (
            sum(c for k, c in calls.items() if k.startswith("analytic.")) / n, "count"),
        "analytic.self_ms_per_op": (self_ms["analytic"] / n, "ms"),
        "engine.self_ms_per_op": (self_ms["engine"] / n, "ms"),
        "friction.evaluate.calls_per_op": (calls.get("friction.evaluate", 0) / n, "count"),
        "friction.self_ms_per_op": (self_ms["friction"] / n, "ms"),
        "cli.import_ms": (
            statistics.median(child_import_ms) if child_import_ms else import_ms, "ms"),
        "cli.self_ms_per_op": (self_ms["cli"] / n, "ms"),
        "cli.bytes_out_per_op": (bytes_out / n, "bytes"),
        "trace.overhead_frac": (traced_ms / untraced_ms - 1.0, "fraction"),
        "trace.unaccounted_frac": (1.0 - sum(self_ms.values()) / traced_ms, "fraction"),
    }
    raw = {"calls": calls, "regimes": regimes, "traced_ms": traced_ms, "untraced_ms": untraced_ms}
    return metrics, raw, ops


def _measure(wl, args, clock: _Clock, failures: list[str]) -> list:
    traced = bool(args.trace)
    done: list = []
    attempted = 0
    start = perf_counter()
    n_rot = max(1, round(args.seconds / TRACE_ROTATION_S[args.workload]))
    index = 0
    while True:
        ops = wl.rotation(index)
        attempted += len(ops)
        done += _run_ops(wl, ops, clock, failures, traced)
        index += 1
        elapsed = perf_counter() - start
        if traced:
            if index >= n_rot:
                break
        elif (elapsed >= args.seconds and attempted >= MIN_OPS) or elapsed >= HARD_CAP_S:
            break
    return done


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    t_run = perf_counter()
    if not (SRC / "dircrawl" / "__init__.py").is_file():
        print(f"error: no dircrawl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    dc, import_ns = import_dircrawl()
    import_ms = import_ns / 1e6 * kernel.NOMINAL_MS / kernel.measure_ms()
    if not Path(dc.__file__).resolve().is_relative_to(SRC):
        print(f"error: dircrawl was imported from {dc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](dc, args.seed, workdir)
        first = wl.setup()[0]
        _, result, _ = wl.timed(first)
        err = _check(wl, first, result)
        if err is not None:
            print(f"error: warm-up op failed: {err}", file=sys.stderr)
            return 2
        if args.setup_probe:
            return 0
        failures: list[str] = []
        clock = _Clock(process=wl.process_kernel)
        done = _measure(wl, args, clock, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not done:
        print(f"error: every op failed: {failures[:5]}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, raw, per_op = _per_layer(wl, done, import_ms)
    else:
        metrics, raw = _end_to_end(wl, args, clock, done, failures, import_ms)
        per_op = [{"op": wl.label(op), "raw_ms": r / 1e6, "factor": f} for op, r, f, _ in done]
    attempted = len(done) + len(failures)
    by_class: dict[str, int] = {}
    for op, *_ in done:
        by_class[wl.label(op)] = by_class.get(wl.label(op), 0) + 1
    import numpy  # already loaded by dircrawl; not imported earlier so import_ms counts it

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "kernel_ms": _quartiles(clock.kernels),
        "kernel_nominal_ms": clock.nominal,
        "raw": raw,
        "run_wall_s": perf_counter() - t_run,
        "ops_by_class": by_class,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures[:10],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # Per op: raw time and kernel factor, and in a traced run the per-layer
    # self times and counts (the folded spans).
    saved = {"record": record, "result": result, "ops": per_op}
    (out_dir / name).write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
