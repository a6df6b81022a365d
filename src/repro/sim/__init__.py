"""Simulation engine: machine model, timing, replay loop, results.

The variant list is the scheduling-policy registry —
``repro.sched.policy_names()``. The replay engine, the machine and its
timing and TLB models load on first access (PEP 562), so naming a
:class:`SimConfig` or reading a :class:`SimulationResult` does not
import them.
"""

import importlib

from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult

_LAZY = {
    "Machine": "repro.sim.machine",
    "ReplayEngine": "repro.sim.engine",
    "TimingModel": "repro.sim.timing",
    "Tlb": "repro.sim.tlb",
    "simulate": "repro.sim.engine",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "Machine",
    "ReplayEngine",
    "SimConfig",
    "SimulationResult",
    "Tlb",
    "TimingModel",
    "simulate",
]
