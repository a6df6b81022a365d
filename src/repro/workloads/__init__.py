"""Workload substrate: specs, trace containers, generators, benchmarks.

The four benchmarks of Table 1 — plus the scenario extensions
(``webserve``, ``phased``) — are exposed through :func:`get_workload`:

>>> from repro.workloads import get_workload
>>> spec = get_workload("tpcc-1")
>>> spec.name
'tpcc-1'

The trace generator (and numpy with it) loads on first use: naming a
workload, or keying a spec for one, does not import it.
"""

from __future__ import annotations

import importlib

from repro.errors import ConfigurationError
from repro.params import ScalePreset
from repro.workloads.mapreduce import make_mapreduce
from repro.workloads.phased import make_phased
from repro.workloads.spec import (
    DataSpec,
    MixPhase,
    PathStep,
    SegmentSpec,
    TransactionTypeSpec,
    WorkloadSpec,
    layout_segments,
)
from repro.workloads.tpcc import make_tpcc
from repro.workloads.tpce import make_tpce
from repro.workloads.webserve import make_webserve
from repro.workloads.trace import (
    KIND_INSTR,
    KIND_LOAD,
    KIND_STORE,
    Trace,
    ThreadTrace,
)

#: Default thread counts per scale preset (paper: 1K tasks; Section 5.1).
DEFAULT_THREADS = {
    ScalePreset.SMOKE: 8,
    ScalePreset.CI: 48,
    ScalePreset.PAPER: 256,
}

_FACTORIES = {
    "tpcc-1": lambda scale: make_tpcc(scale, warehouses=1),
    "tpcc-10": lambda scale: make_tpcc(scale, warehouses=10),
    "tpce": make_tpce,
    "mapreduce": make_mapreduce,
    "webserve": make_webserve,
    "phased": make_phased,
}


def workload_names() -> list[str]:
    """The four Table 1 workloads (paper order), then the extensions."""
    return ["tpcc-1", "tpcc-10", "tpce", "mapreduce", "webserve", "phased"]


def get_workload(
    name: str, scale: ScalePreset = ScalePreset.CI
) -> WorkloadSpec:
    """Build a named workload spec.

    Raises:
        ConfigurationError: for an unknown workload name.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {sorted(_FACTORIES)}"
        )
    return factory(scale)


def standard_trace(
    name: str,
    scale: ScalePreset = ScalePreset.CI,
    n_threads: int | None = None,
    seed: int = 1,
) -> Trace:
    """Generate the standard trace for a named workload at a scale."""
    from repro.workloads.generator import generate_trace

    spec = get_workload(name, scale)
    if n_threads is None:
        n_threads = DEFAULT_THREADS[scale]
    return generate_trace(spec, n_threads=n_threads, seed=seed)


def __getattr__(name):
    if name not in ("generate_thread", "generate_trace"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("repro.workloads.generator"), name)
    globals()[name] = value
    return value


__all__ = [
    "DEFAULT_THREADS",
    "DataSpec",
    "KIND_INSTR",
    "KIND_LOAD",
    "KIND_STORE",
    "MixPhase",
    "PathStep",
    "SegmentSpec",
    "Trace",
    "ThreadTrace",
    "TransactionTypeSpec",
    "WorkloadSpec",
    "generate_thread",
    "generate_trace",
    "get_workload",
    "layout_segments",
    "make_mapreduce",
    "make_phased",
    "make_tpcc",
    "make_tpce",
    "make_webserve",
    "standard_trace",
    "workload_names",
]
