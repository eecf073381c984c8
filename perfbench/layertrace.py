"""Layer tracing from outside the library.

``Tracer.install`` replaces the public functions of ``friction``, ``body``,
``balance``, ``analytic``, ``engine`` and ``cli`` with timing wrappers, in
every ``dircrawl`` module that holds a reference to them.  Rebinding by
object identity matters: ``engine`` imports ``solve_velocity`` by name, so
patching ``balance.solve_velocity`` alone would miss every call the engine
makes, while ``balance`` looks ``total_force`` up through its own module
globals at call time.  Gait ``shape_at``/``rate_at`` are patched on their
classes; the profile helpers they call (``length_at`` and the like) are not,
so when ``analytic`` quadrature calls those directly the time is its own.

Each wrapper keeps a stack frame ``[layer, name, child_ns]``; on return the
call's duration minus the time of its children is its self time, added to
its layer.  Spans are folded into per-layer totals in memory as they close
(a ``cycles`` op makes ~10^4 calls, so keeping every span would cost more
memory than the library); the benchmark snapshots the totals per op and
writes them out when the run ends.

Counting rules: ``balance`` and ``friction`` calls are all counted (nested
``total_force`` calls inside ``solve_velocity`` are the point).  ``body``,
``analytic``, ``engine`` and ``cli`` calls are counted only when outermost
within their layer, because ``CompositeStride.shape_at`` delegates to
``TwoSegmentPath.shape_at`` and ``verify`` calls ``cycle_displacement``.
"""

from __future__ import annotations

import inspect
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("friction", "body", "balance", "analytic", "engine", "cli")
_COUNT_NESTED = frozenset({"friction", "balance"})
_GAIT_CLASSES = ("Breather", "ConstantLength", "TwoSegmentPath", "CompositeStride", "SquareWave")
_GAIT_METHODS = ("shape_at", "rate_at")


class Tracer:
    """Per-layer self time and call counts for calls made while installed."""

    def __init__(self, dc) -> None:
        self._dc = dc
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[list[Any]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.regimes: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Zero the totals, in place: installed wrappers hold the dicts."""
        self.self_ns.update(dict.fromkeys(LAYERS, 0))
        self.calls.clear()
        self.regimes.clear()
        self.residual_max = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "residual_max": self.residual_max,
            "regimes": dict(self.regimes),
        }

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable, on_result=None) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        count_nested = layer in _COUNT_NESTED
        key = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                self_ns[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if count_nested or parent is None or parent[0] != layer:
                    calls[key] = calls.get(key, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _on_solve(self, sol) -> None:
        if sol.residual > self.residual_max:
            self.residual_max = sol.residual
        self.regimes[sol.regime] = self.regimes.get(sol.regime, 0) + 1

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        dc = self._dc
        wrappers: dict[int, Callable] = {}
        for layer in ("friction", "balance", "analytic", "engine"):
            module = getattr(dc, layer)
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    hook = self._on_solve if (layer, name) == ("balance", "solve_velocity") else None
                    wrappers[id(fn)] = self._wrap(layer, name, fn, hook)
        wrappers[id(dc.cli.main)] = self._wrap("cli", "main", dc.cli.main)
        for module in (dc, dc.friction, dc.body, dc.balance, dc.analytic, dc.engine, dc.cli):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls_name in _GAIT_CLASSES:
            cls = getattr(dc.body, cls_name)
            for attr in _GAIT_METHODS:
                value = vars(cls)[attr]
                self._patches.append((cls, attr, value))
                setattr(cls, attr, self._wrap("body", attr, value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def import_dircrawl() -> tuple[Any, int]:
    """Import the package with its submodules; returns it and the ns taken."""
    t0 = perf_counter_ns()
    import dircrawl
    import dircrawl.cli  # noqa: F401  (not imported by the package itself)

    return dircrawl, perf_counter_ns() - t0

