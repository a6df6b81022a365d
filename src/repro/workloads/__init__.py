"""Workload substrate: specs, trace containers, generators, benchmarks.

The four benchmarks of Table 1 — plus the scenario extensions
(``webserve``, ``phased``) — are exposed through :func:`get_workload`:

>>> from repro.workloads import get_workload
>>> spec = get_workload("tpcc-1")
>>> spec.name
'tpcc-1'

The workload makers, their spec classes, the trace containers and the
trace generator (with numpy) load on first use (PEP 562): naming a
workload, or keying a spec for one, imports none of them.
"""

from __future__ import annotations

import importlib

from repro.errors import ConfigurationError
from repro.params import ScalePreset

#: Default thread counts per scale preset (paper: 1K tasks; Section 5.1).
DEFAULT_THREADS = {
    ScalePreset.SMOKE: 8,
    ScalePreset.CI: 48,
    ScalePreset.PAPER: 256,
}

#: Workload name -> (maker module, maker function, keyword arguments);
#: the four Table 1 workloads in paper order, then the extensions.
_MAKERS = {
    "tpcc-1": ("repro.workloads.tpcc", "make_tpcc", {"warehouses": 1}),
    "tpcc-10": ("repro.workloads.tpcc", "make_tpcc", {"warehouses": 10}),
    "tpce": ("repro.workloads.tpce", "make_tpce", {}),
    "mapreduce": ("repro.workloads.mapreduce", "make_mapreduce", {}),
    "webserve": ("repro.workloads.webserve", "make_webserve", {}),
    "phased": ("repro.workloads.phased", "make_phased", {}),
}

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        ("generate_thread", "generate_trace"), "repro.workloads.generator"
    ),
    **{maker: module for module, maker, _ in _MAKERS.values()},
    **dict.fromkeys(
        (
            "DataSpec",
            "MixPhase",
            "PathStep",
            "SegmentSpec",
            "TransactionTypeSpec",
            "WorkloadSpec",
            "layout_segments",
        ),
        "repro.workloads.spec",
    ),
    **dict.fromkeys(
        ("KIND_INSTR", "KIND_LOAD", "KIND_STORE", "Trace", "ThreadTrace"),
        "repro.workloads.trace",
    ),
}


def workload_names() -> list[str]:
    """The four Table 1 workloads (paper order), then the extensions."""
    return list(_MAKERS)


def get_workload(
    name: str, scale: ScalePreset = ScalePreset.CI
) -> WorkloadSpec:
    """Build a named workload spec.

    Raises:
        ConfigurationError: for an unknown workload name.
    """
    try:
        module, maker, kwargs = _MAKERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {sorted(_MAKERS)}"
        ) from None
    return getattr(importlib.import_module(module), maker)(scale, **kwargs)


def import_makers() -> None:
    """Import every workload maker now (a pool does, before it forks,
    so its workers inherit them instead of each compiling them)."""
    for module, _, _ in _MAKERS.values():
        importlib.import_module(module)


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
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
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
    "import_makers",
    "layout_segments",
    "make_mapreduce",
    "make_phased",
    "make_tpcc",
    "make_tpce",
    "make_webserve",
    "standard_trace",
    "workload_names",
]
