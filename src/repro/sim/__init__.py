"""Simulation engine: machine model, timing, replay loop, results.

The variant list is the scheduling-policy registry —
``repro.sched.policy_names()``.
"""

from repro.sim.engine import (
    ReplayEngine,
    SimConfig,
    simulate,
)
from repro.sim.machine import Machine
from repro.sim.results import SimulationResult
from repro.sim.timing import TimingModel
from repro.sim.tlb import Tlb

__all__ = [
    "Machine",
    "ReplayEngine",
    "SimConfig",
    "SimulationResult",
    "Tlb",
    "TimingModel",
    "simulate",
]
