"""Scan of cycles over inputs scaled by powers of two (a script; pytest does
not collect it).

Scaling an input's lengths by ``2**m``, its period by ``2**n``, its yields by
``2**j`` and its viscosities by ``2**(j - m + n)``
(``test_cycle_magnitudes._scaled``) scales its cycle displacement by exactly
``2**m``, a metamorphic relation (Chen et al. 1998).  For the breather,
crawler and stride classes of ``perfbench/inputs.py`` on every law family, at
every ``(m, n, j)`` with entries in ``{0, ±250, ±400}`` and ``|j - m + n| <=
900`` (117 scales), this compares each cycle with ``2**m`` times its value at
unit scale, on the default integrator and on the midpoint grid at ``dt =
T/400``.  Per integrator it prints the cycles that raise
:class:`DegenerateSubstrateError`, those that return a value off ``2**m``
times the unit-scale one by more than ``1e-13`` of it, with the worst, and,
on the midpoint grid, those that return after sending a row to
``balance._solve`` (the default integrator calls it by design).

Run it from the repository root, on this tree's library or another's::

    python tests/scaled_scan.py [--src PATH] [--seeds 1 2 3]
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TOL = 1e-13
_GAITS = ("breather", "constant_length", "composite_stride")
_LEVELS = (0, 250, -250, 400, -400)
_SCALES = [s for s in itertools.product(_LEVELS, repeat=3) if abs(s[2] - s[0] + s[1]) <= 900]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=_ROOT / "src", help="the library's src directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(_ROOT / "tests")]
    import dircrawl
    from dircrawl import balance, engine
    from test_cycle_magnitudes import _scaled, inputs

    calls = [0]
    solve = balance._solve

    def counted(*a):
        calls[0] += 1
        return solve(*a)

    def cycle(case, steps):
        law, gait = case.build(dircrawl)
        dt = None if steps is None else gait.period / steps
        return engine.cycle_displacement(law, gait, dt=dt).net_displacement

    balance._solve = counted
    print(f"library: {Path(dircrawl.__file__).parent}")
    print(f"{len(_SCALES)} scales x seeds {args.seeds} x {3 * len(_GAITS)} classes")
    for integrator, steps in (("default", None), ("midpoint", 400)):
        total = raised = off = to_solve = 0
        worst = 0.0
        for seed, gait, family in itertools.product(args.seeds, _GAITS, ("dry", "newtonian", "mixed")):
            case = inputs.draw(seed, "cycles", 0, f"{gait}/{family}", dircrawl)
            unit = cycle(case, steps)
            for m, n, j in _SCALES:
                total += 1
                calls[0] = 0
                try:
                    x = cycle(_scaled(case, m, n, j), steps)
                except dircrawl.DegenerateSubstrateError:
                    raised += 1
                    continue
                to_solve += calls[0] > 0
                target = math.ldexp(unit, m)
                error = abs(x - target) / abs(target) if target else (0.0 if x == 0.0 else math.inf)
                off += not error <= _TOL
                worst = max(worst, error) if error == error else math.inf
        rows = f", {to_solve} send rows to balance._solve" if steps else ""
        print(
            f"{integrator}: {total} cycles, {raised} raise, {off} off by more than {_TOL:g} "
            f"(worst {worst:.2g}){rows}"
        )


if __name__ == "__main__":
    main()
