"""SLICC: Self-Assembly of Instruction Cache Collectives for OLTP Workloads.

A complete trace-driven reproduction of Atta, Tozun, Ailamaki and
Moshovos, MICRO 2012. The public API in one import:

>>> import repro
>>> trace = repro.standard_trace("tpcc-1", repro.ScalePreset.SMOKE)
>>> base = repro.simulate(trace, variant="base")
>>> sw = repro.simulate(trace, variant="slicc-sw")
>>> sw.speedup_over(base) > 0
True

``simulate`` replays any trace, a hand-built one included; sweeps key
an :class:`~repro.exp.ExperimentSpec`, which names its trace by
workload, scale, thread count and seed.

See DESIGN.md for the system inventory, and ROADMAP.md item 1 for the
table of where the reproduced Figures 10 and 11 depart from the paper.

``simulate`` and ``generate_trace`` load the replay engine and the trace
generator on first access (PEP 562), so ``import repro`` stays cheap
for commands that only key specs, read a store or write reports.
"""

import importlib

from repro.exp import (
    ExperimentSpec,
    ResultStore,
    Runner,
    grid,
    summarize,
)
from repro.params import (
    BLOCK_SIZE,
    DEFAULT_SLICC,
    DEFAULT_SYSTEM,
    CacheParams,
    ScalePreset,
    SliccParams,
    SystemParams,
)
from repro.sim import SimConfig, SimulationResult
from repro.workloads import get_workload, standard_trace, workload_names

__version__ = "1.0.0"

_LAZY = {"generate_trace": "repro.workloads", "simulate": "repro.sim"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "BLOCK_SIZE",
    "CacheParams",
    "DEFAULT_SLICC",
    "DEFAULT_SYSTEM",
    "ExperimentSpec",
    "ResultStore",
    "Runner",
    "ScalePreset",
    "SimConfig",
    "SimulationResult",
    "SliccParams",
    "SystemParams",
    "__version__",
    "generate_trace",
    "get_workload",
    "grid",
    "simulate",
    "standard_trace",
    "summarize",
    "workload_names",
]
