"""Seeded, stratified inputs.

Every workload rotates through the same fixed list of gait-by-law classes,
one op per class per rotation, so a new seed changes the parameters inside
each class but never the cost mix.  Parameters are drawn from
``random.Random`` seeded with a string, which is stable across Python
versions and platforms.

Classes and what each exercises (regime from ``analytic.wave_admissibility``
for the waves; it is checked when the input is drawn):

==================  ==================  ==================  ==================
gait \\ law          dry                 newtonian           mixed
==================  ==================  ==================  ==================
breather            closed form         closed form         quadrature form
constant_length     closed form         closed form         quadrature form
composite_stride    closed form         closed form         none (simulate)
stick_slip_wave     stick-slip          infeasible: no      stick-slip
                                        resistance ahead
sliding_wave        infeasible: width   sliding             sliding (one-sided
                    above stick bound                       yield)
==================  ==================  ==================  ==================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

GAITS = ("breather", "constant_length", "composite_stride", "stick_slip_wave", "sliding_wave")
LAWS = ("dry", "newtonian", "mixed")
CLASSES = tuple(f"{g}/{law}" for g in GAITS for law in LAWS)

#: Classes whose (law, gait) pair has no closed form: ``verify`` would raise,
#: so ops on them run ``cycle_displacement`` instead.
NO_CLOSED_FORM = frozenset(
    {"composite_stride/mixed", "stick_slip_wave/newtonian", "sliding_wave/dry"}
)

_EXPECTED_WAVE_REGIME = {
    "stick_slip_wave/dry": "stick_slip",
    "stick_slip_wave/newtonian": "infeasible",
    "stick_slip_wave/mixed": "stick_slip",
    "sliding_wave/dry": "infeasible",
    "sliding_wave/newtonian": "sliding",
    "sliding_wave/mixed": "sliding",
}

# CLI config key -> library constructor field, per gait kind.
_FIELDS = {
    "breather": {"L": "ref_length", "delta": "delta", "T": "period"},
    "constant_length": {
        "L": "ref_length",
        "x_star": "split",
        "l1_rest": "seg1_rest",
        "delta": "delta",
        "T": "period",
    },
    "composite_stride": {"lambda": "lam", "delta": "delta", "h": "h", "T": "period"},
    "square_wave": {"L": "ref_length", "delta": "delta", "epsilon": "epsilon", "c": "speed"},
}


@dataclass(frozen=True)
class Case:
    """One drawn input: a class label, a friction law and a gait, in the
    CLI's configuration vocabulary so the same case feeds every workload."""

    cls: str
    law: tuple[float, float, float, float]  # tau_minus, tau_plus, mu_minus, mu_plus
    kind: str
    gait: tuple[tuple[str, float], ...]

    @property
    def closed_form(self) -> bool:
        return self.cls not in NO_CLOSED_FORM

    def config(self) -> dict[str, Any]:
        """The ``dircrawl`` CLI configuration for this case."""
        keys = ("tau_minus", "tau_plus", "mu_minus", "mu_plus")
        return {
            "schema": 1,
            "substrate": dict(zip(keys, self.law)),
            "gait": {"kind": self.kind, **dict(self.gait)},
        }

    def build(self, dc) -> tuple[Any, Any]:
        """Library ``(FrictionLaw, gait)`` for this case; ``dc`` is the
        imported ``dircrawl`` package."""
        classes = {
            "breather": dc.Breather,
            "constant_length": dc.ConstantLength,
            "composite_stride": dc.CompositeStride,
            "square_wave": dc.SquareWave,
        }
        fields = _FIELDS[self.kind]
        gait = classes[self.kind](**{fields[k]: v for k, v in self.gait})
        return dc.FrictionLaw(*self.law), gait


def _law(rng: random.Random, family: str) -> list[float]:
    tau = [rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)]
    mu = [rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)]
    if family == "dry":
        return tau + [0.0, 0.0]
    if family == "newtonian":
        return [0.0, 0.0] + mu
    return tau + mu


def _wave(rng: random.Random, cls: str, dc) -> Case:
    """Square wave whose regime is the one the class names."""
    family = cls.split("/")[1]
    L = rng.uniform(0.5, 2.0)
    c = rng.uniform(0.5, 2.0)
    extension = rng.random() < 0.5
    eps = rng.uniform(0.2, 0.8) if extension else -rng.uniform(0.2, 0.6)
    law = _law(rng, family)
    # Index of the parameters acting ahead of the wave: tau_plus/mu_plus for
    # extension waves, tau_minus/mu_minus for contraction waves.
    tau_front, mu_front = (1, 3) if extension else (0, 2)
    if cls == "stick_slip_wave/newtonian":
        law[mu_front] = 0.0
    if cls == "sliding_wave/mixed":
        law[tau_front] = 0.0
    flaw = dc.FrictionLaw(*law)
    ss_max = dc.analytic.stickslip_delta_max(flaw, eps, c, L)
    sl_max = dc.analytic.sliding_delta_max(flaw, eps, c, L)
    if cls == "sliding_wave/dry":
        delta = ss_max + rng.uniform(0.2, 0.8) * (L - ss_max)
    elif cls.startswith("stick_slip_wave") and family != "newtonian":
        delta = rng.uniform(0.3, 0.9) * ss_max
    elif cls.startswith("sliding_wave"):
        delta = rng.uniform(0.3, 0.8) * min(sl_max, L)
    else:
        delta = rng.uniform(0.1, 0.6) * L
    adm = dc.analytic.wave_admissibility(flaw, eps, c, delta, L)
    if adm.regime != _EXPECTED_WAVE_REGIME[cls]:
        raise RuntimeError(f"{cls}: drew a {adm.regime} wave")
    gait = (("L", L), ("delta", delta), ("epsilon", eps), ("c", c))
    return Case(cls, tuple(law), "square_wave", gait)


def draw(seed: int, stream: str, index: int, cls: str, dc) -> Case:
    """The case for class ``cls`` at position ``index`` of ``stream``."""
    rng = random.Random(f"dircrawl-bench:{seed}:{stream}:{index}:{cls}")
    gait_name, family = cls.split("/")
    if gait_name.endswith("_wave"):
        return _wave(rng, cls, dc)
    law = tuple(_law(rng, family))
    if gait_name == "breather":
        L = rng.uniform(0.5, 2.0)
        gait = (("L", L), ("delta", rng.uniform(0.1, 0.5) * L), ("T", rng.uniform(0.5, 2.0)))
    elif gait_name == "constant_length":
        L = rng.uniform(0.5, 2.0)
        rest = rng.uniform(0.2, 0.5) * L
        gait = (
            ("L", L),
            ("x_star", rng.uniform(0.3, 0.7) * L),
            ("l1_rest", rest),
            ("delta", rng.uniform(0.2, 0.8) * (L - rest) * 0.5),
            ("T", rng.uniform(0.5, 2.0)),
        )
    else:
        lam = rng.uniform(0.5, 1.5)
        gait = (
            ("lambda", lam),
            ("delta", rng.uniform(0.1, 0.5) * lam),
            ("h", rng.uniform(1.2, 2.0)),
            ("T", rng.uniform(0.5, 2.0)),
        )
    return Case(cls, law, gait_name, gait)


def rotation(seed: int, stream: str, index: int, dc) -> list[Case]:
    """One op per class, in the fixed class order."""
    return [draw(seed, stream, index, cls, dc) for cls in CLASSES]


def closed_form(case: Case, dc) -> float | None:
    """Per-cycle closed-form displacement, evaluated from ``dircrawl.analytic``
    directly (not through ``engine``), or None when the class has none."""
    if not case.closed_form:
        return None
    law, gait = case.build(dc)
    a = dc.analytic
    if case.kind == "breather":
        return a.breather_cycle_displacement(
            law, gait.length_at, gait.length_rate_at, gait.period,
            corners=gait.monotone_corners(),
        )
    if case.kind == "constant_length":
        return a.breather_cycle_displacement(
            law, gait.seg1_length_at, gait.seg1_rate_at, gait.period,
            corners=gait.monotone_corners(),
        )
    if case.kind == "composite_stride":
        return a.composite_stride_displacement(law, gait.lam, gait.delta, gait.h).total
    if case.cls.startswith("stick_slip_wave"):
        return a.stickslip_displacement(gait.epsilon, gait.delta)
    return a.sliding_cycle_displacement(
        law, gait.epsilon, gait.speed, gait.delta, gait.ref_length
    ).total
