"""Experiment orchestration: declarative specs, parallel runs, caching.

The layer every campaign goes through::

    from repro.exp import ExperimentSpec, Runner, ResultStore, grid, summarize

    base = ExperimentSpec("tpcc-1", scale="ci", n_threads=32, seed=7)
    specs = grid(base, {"variant": ["slicc-sw"],
                        "slicc.dilution_t": [2, 6, 10]})
    runner = Runner(store=ResultStore("results/"), jobs=4)
    results = runner.run(specs)
    print(summarize(zip(specs, results)))

Specs are frozen and content-hashed; the runner fans out over processes
and the store makes repeated sweeps incremental. A spec names its trace
by workload, scale, thread count and seed, so any process can rebuild
it; a hand-built trace runs through :func:`repro.simulate` instead.
The worker pool and the work queue load on first access (PEP 562), so
keying specs and reading a store import neither ``multiprocessing`` nor
the queue. Nor do they import the fault-injection harness, which only
simulating and writing consult, or the spec-file reader, which only
``run``, ``exp`` and ``queue enqueue`` use.
"""

import importlib

from repro.exp.figures import (
    Figure,
    FigureRow,
    figure_names,
    get_figure,
    register_figure,
    select_figures,
)
from repro.exp.runner import Runner, RunnerStats, SpecOutcome
from repro.exp.spec import (
    ExperimentSpec,
    grid,
    product,
    spec_from_dict,
    with_overrides,
)
from repro.exp.store import (
    STORE_BACKENDS,
    MigrationReport,
    ResultStore,
    StoreAudit,
    audit_store,
    compact_store,
    describe_store,
    locate_store,
    migrate_store,
    result_from_dict,
    result_to_dict,
    result_to_json,
)
from repro.exp.summarize import summarize

_LAZY = {
    **dict.fromkeys(
        ("FaultPlan", "active_plan", "parse_fault_spec"), "repro.exp.faults"
    ),
    "FaultTolerantPool": "repro.exp.pool",
    "load_spec_file": "repro.exp.specfile",
    "specs_from_payload": "repro.exp.specfile",
    **dict.fromkeys(
        (
            "ClaimedSpec",
            "DrainReport",
            "LeaseHeartbeat",
            "QueueStatus",
            "StaleLease",
            "WorkQueue",
            "drain",
            "resolve_queue_path",
        ),
        "repro.exp.queue",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "ClaimedSpec",
    "DrainReport",
    "ExperimentSpec",
    "FaultPlan",
    "FaultTolerantPool",
    "Figure",
    "FigureRow",
    "LeaseHeartbeat",
    "MigrationReport",
    "QueueStatus",
    "ResultStore",
    "STORE_BACKENDS",
    "Runner",
    "RunnerStats",
    "SpecOutcome",
    "StaleLease",
    "StoreAudit",
    "WorkQueue",
    "active_plan",
    "audit_store",
    "compact_store",
    "describe_store",
    "drain",
    "locate_store",
    "migrate_store",
    "figure_names",
    "get_figure",
    "grid",
    "load_spec_file",
    "parse_fault_spec",
    "register_figure",
    "select_figures",
    "product",
    "resolve_queue_path",
    "result_from_dict",
    "result_to_dict",
    "result_to_json",
    "spec_from_dict",
    "specs_from_payload",
    "summarize",
    "with_overrides",
]
