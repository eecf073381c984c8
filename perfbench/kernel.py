"""Reference kernel: the benchmark's yardstick for host speed.

The host this benchmark was written on changes CPU speed by up to 2x from
second to second, so raw wall times do not repeat.  Every op is bracketed by
this kernel and its time is rescaled to "ms at reference host speed":

    normalized = raw * NOMINAL_MS / kernel_ms_measured_next_to_the_op

How well this works depends on the kernel reacting to a slow host the way
the library does.  A tight arithmetic loop did not (it sped up more than the
ops in the host's fast phases); code shaped like the library's hot path did,
halving the per-op scatter.  So the kernel is a small, self-contained
quasi-static balance solver for a traveling square wave on a piecewise-affine
body: frozen dataclasses validated on construction, sorted breakpoint sets,
a force integral over pieces, a bracketed root and a regime classification.

Timings that start a process (CLI ops, the set-up probes) are dominated by
interpreter start and imports, which the host's fast phases do not speed up
the way they speed up Python code; bracketing those with the in-process
kernel made their spread worse than raw.  They are bracketed instead by the
process kernel: this file run as a script, a fresh interpreter that imports
numpy and runs the in-process kernel a few times.

Neither kernel imports ``dircrawl``, so no change to the library can move
them.  Do not edit this file: every normalized number ever recorded depends
on it.
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

#: Fixed nominal kernel times; normalized times are "ms at a host where the
#: kernel takes exactly this long".
NOMINAL_MS = 4.0
NOMINAL_PROCESS_MS = 300.0

_PROCESS_WORK = 5

_SAMPLES = tuple(0.01 + 0.0115 * i for i in range(100))
_TAU_M, _TAU_P, _MU_M, _MU_P = 0.7, 0.3, 0.5, 0.2
_L, _D, _E, _C = 1.0, 0.2, 0.5, 1.0


@dataclass(frozen=True)
class _Shape:
    ref: tuple[float, ...]
    arc: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.ref) != len(self.arc) or len(self.ref) < 2:
            raise ValueError("node lists differ")
        for i in range(len(self.ref) - 1):
            if not (self.ref[i + 1] > self.ref[i] and self.arc[i + 1] > self.arc[i]):
                raise ValueError("nodes must increase")


@dataclass(frozen=True)
class _Rate:
    ref: tuple[float, ...]
    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.ref) - 1:
            raise ValueError("one pair per interval")


@dataclass(frozen=True)
class _Force:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty force interval")


@dataclass(frozen=True)
class _Solution:
    x: float
    regime: str
    residual: float


def _wave(t: float) -> tuple[_Shape, _Rate]:
    ct = _C * (t % ((_L + _D) / _C))
    if ct < _D:
        pts = [(0.0, 0.0), (ct, (1 + _E) * ct), (_L, _L + _E * ct)]
        rates = [0.0, _E * _C]
    elif ct < _L:
        pts = [(0.0, 0.0), (ct - _D, ct - _D), (ct, ct + _E * _D), (_L, _L + _E * _D)]
        rates = [0.0, -_E * _C, 0.0]
    else:
        pts = [(0.0, 0.0), (ct - _D, ct - _D), (_L, _L + _E * (_L + _D - ct))]
        rates = [0.0, -_E * _C]
    ref = tuple(p[0] for p in pts)
    return _Shape(ref, tuple(p[1] for p in pts)), _Rate(ref, tuple((r, r) for r in rates))


def _total_force(shape: _Shape, rate: _Rate, x: float) -> _Force:
    point = static = 0.0
    for i, (r0, r1) in enumerate(rate.pairs):
        seg = shape.arc[i + 1] - shape.arc[i]
        v0, v1 = x + r0, x + r1
        if v0 == 0.0 and v1 == 0.0:
            static += seg
        elif v0 <= 0.0 and v1 <= 0.0:
            point += _TAU_M * seg - _MU_M * 0.5 * (v0 + v1) * seg
        elif v0 >= 0.0 and v1 >= 0.0:
            point += -_TAU_P * seg - _MU_P * 0.5 * (v0 + v1) * seg
        else:
            a = v0 / (v0 - v1) * seg
            point += _TAU_M * a - _TAU_P * (seg - a)
    return _Force(point - _TAU_P * static, point + _TAU_M * static)


def _solve(shape: _Shape, rate: _Rate) -> _Solution:
    breaks = sorted({-r for pair in rate.pairs for r in pair})
    forces = [_total_force(shape, rate, b) for b in breaks]
    best = None
    for b, f in zip(breaks, forces):
        if f.lo <= 0.0 <= f.hi:
            best = b if best is None or abs(b) < abs(best) else best
    if best is None:
        lo, hi = breaks[0] - 10.0, breaks[-1] + 10.0
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if _total_force(shape, rate, mid).hi > 0.0:
                lo = mid
            else:
                hi = mid
        best = 0.5 * (lo + hi)
    f = _total_force(shape, rate, best)
    regime = "stick_slip" if any(abs(best + r0) < 1e-12 for r0, _ in rate.pairs) else "sliding"
    return _Solution(best, regime, min(abs(f.lo), abs(f.hi)))


def work() -> float:
    """The fixed computation; returns a checksum so it cannot be skipped."""
    acc = 0.0
    for t in _SAMPLES:
        shape, rate = _wave(t)
        acc += math.fsum((_solve(shape, rate).x, shape.arc[-1]))
    return acc


def measure_ms() -> float:
    """Wall time of one in-process kernel execution, in ms."""
    t0 = time.perf_counter_ns()
    work()
    return (time.perf_counter_ns() - t0) / 1e6


def run_child(cmd: list[str], timeout_s: int = 120, **popen) -> tuple[int, subprocess.CompletedProcess]:
    """Run ``cmd`` to completion with stdout and stderr captured; returns its
    wall time in ns and the completed process.

    It waits with a blocking ``waitpid``: ``subprocess``'s own timeout
    polls with sleeps of up to 50 ms, which quantized measured times into
    50 ms steps.  The timeout is a SIGALRM watchdog instead (main thread only).
    """

    def expire(signum, frame):
        raise TimeoutError(f"{cmd[:3]} still running after {timeout_s} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout_s)
    try:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)
        try:
            out, err = proc.communicate()
        except TimeoutError:
            proc.kill()
            proc.communicate()
            raise
        wall = time.perf_counter_ns() - t0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return wall, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_process_ms() -> float:
    """Wall time of one process-kernel run, in ms."""
    wall, proc = run_child([sys.executable, __file__], timeout_s=60)
    if proc.returncode != 0:
        raise RuntimeError(f"process kernel failed: {proc.stderr.decode(errors='replace')}")
    return wall / 1e6


if __name__ == "__main__":
    import numpy  # noqa: F401  (importing it is part of the process kernel)

    for _ in range(_PROCESS_WORK):
        work()
