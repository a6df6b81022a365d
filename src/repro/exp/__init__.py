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
and the store makes repeated sweeps incremental.
"""

from repro.exp.faults import FaultPlan, active_plan, parse_fault_spec
from repro.exp.figures import (
    Figure,
    FigureRow,
    figure_names,
    get_figure,
    register_figure,
    select_figures,
)
from repro.exp.pool import FaultTolerantPool, SpecOutcome
from repro.exp.queue import (
    ClaimedSpec,
    DrainReport,
    LeaseHeartbeat,
    QueueStatus,
    StaleLease,
    WorkQueue,
    drain,
    resolve_queue_path,
)
from repro.exp.runner import Runner, RunnerStats
from repro.exp.spec import (
    ExperimentSpec,
    grid,
    product,
    spec_for,
    spec_from_dict,
    trace_fingerprint,
    with_overrides,
)
from repro.exp.specfile import load_spec_file
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
    "spec_for",
    "spec_from_dict",
    "summarize",
    "trace_fingerprint",
    "with_overrides",
]
