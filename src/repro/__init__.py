"""SLICC: Self-Assembly of Instruction Cache Collectives for OLTP Workloads.

A complete trace-driven reproduction of Atta, Tozun, Ailamaki and
Moshovos, MICRO 2012. The public API in one import:

>>> import repro
>>> trace = repro.standard_trace("tpcc-1", repro.ScalePreset.SMOKE)
>>> base = repro.simulate(trace, variant="base")
>>> sw = repro.simulate(trace, variant="slicc-sw")
>>> sw.speedup_over(base) > 0
True

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.

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
    spec_for,
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
    "spec_for",
    "standard_trace",
    "summarize",
    "workload_names",
]
