"""One campaign of a benchmark workload, run as a fresh process per rep.

A user pays for a whole CLI invocation, so every rep is its own process:
interpreter start, ``import repro.cli``, spec expansion, store open, the
campaign, and exit. The campaign mirrors ``repro paper`` (``_cmd_paper``)
or ``repro queue enqueue`` + ``repro queue work`` through the public API,
except that every figure row is re-seeded from ``--seed``.

    python bench/campaign.py smoke-cold --seed 7 --dir DIR --summary S.json

``--setup-only`` stops after the store is open. ``--trace`` wraps the
layers' public calls in spans (see ``spans.py``) and adds them to the
summary. The summary JSON also records the ``time.monotonic()`` instant
set-up ended, which ``run.py`` subtracts from its spawn instant.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    """What one rep of a workload runs, and how ``run.py`` prepares it."""

    kind: str  # "paper" (repro paper) or "queue" (enqueue + work)
    scale: str
    figures: Optional[tuple[str, ...]]  # None = the whole registry
    jobs: int
    backend: str
    warmup: int  # discarded reps before the timed ones
    warm: bool = False  # reps rerun into a store one cold run filled


#: The workloads of BENCHMARK.json, which records why each one exists.
WORKLOADS = {
    "smoke-cold": Workload("paper", "smoke", None, 1, "jsonl", 1),
    "ci-cold": Workload(
        "paper", "ci", ("fig10-mpki", "fig11-speedup"), 1, "jsonl", 0
    ),
    "smoke-warm": Workload("paper", "smoke", None, 1, "jsonl", 1, warm=True),
    "queue-drain": Workload(
        "queue", "smoke", None, min(2, os.cpu_count() or 1), "sqlite", 1
    ),
}

#: Calls wrapped in spans: "module:attribute path", layer, span name.
#: Module-level imports are patched in the namespace that calls them.
SPAN_TARGETS = (
    ("repro.exp.runner:standard_trace", "workloads", "standard_trace"),
    ("repro.exp.spec:ExperimentSpec.key", "exp.spec", "key"),
    ("repro.sim.engine:ReplayEngine.__init__", "sim.construct", "construct"),
    ("repro.sim.engine:ReplayEngine.run", "sim.replay", "replay"),
    ("repro.exp.store:ResultStore.__init__", "exp.store", "open"),
    ("repro.exp.store:ResultStore.put", "exp.store", "put"),
    ("repro.exp.store:ResultStore.get", "exp.store", "get"),
    ("repro.exp.store:result_to_dict", "exp.store", "serde"),
    ("repro.exp.store:result_from_dict", "exp.store", "serde"),
    ("repro.exp.runner:result_to_dict", "exp.store", "serde"),
    ("repro.exp.runner:result_from_dict", "exp.store", "serde"),
    ("repro.exp.queue:WorkQueue.enqueue", "exp.queue", "enqueue"),
    ("repro.exp.queue:WorkQueue.claim", "exp.queue", "claim"),
    ("repro.exp.queue:WorkQueue.renew", "exp.queue", "renew"),
    ("repro.exp.queue:WorkQueue.mark_done", "exp.queue", "mark_done"),
    ("repro.exp.queue:WorkQueue.mark_failed", "exp.queue", "mark_failed"),
    ("repro.exp.queue:WorkQueue.snapshot", "exp.queue", "snapshot"),
    ("repro.exp.runner:Runner.run", "exp.runner", "run"),
    ("repro.analysis:write_figure_report", "analysis", "write_figure_report"),
    ("repro.analysis:write_index", "analysis", "write_index"),
)

#: Classes whose instances are counted, not timed.
COUNTED_CLASSES = (
    ("repro.cache.cache:SetAssociativeCache", "sim.cache_objects"),
    ("repro.exp.pool:FaultTolerantPool", "exp.pool.pools_started"),
)


def _trace_attrs(args, kwargs, trace) -> dict:
    return {
        "key": repr((args, sorted(kwargs.items()))),
        "records": trace.total_records,
    }


def _replay_attrs(args, kwargs, result) -> dict:
    return {"records": args[0].trace.total_records}


_ATTRS = {"standard_trace": _trace_attrs, "replay": _replay_attrs}


def _resolve(target: str):
    """``(owner, attribute)`` for a ``module:dotted.path`` target."""
    module_name, _, path = target.partition(":")
    *parents, attr = path.split(".")
    owner = importlib.import_module(module_name)
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install_tracing(tracer) -> None:
    """Wrap every span target and count every counted class."""
    for target, layer, name in SPAN_TARGETS:
        owner, attr = _resolve(target)
        fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(fn, layer, name, _ATTRS.get(name)))
    for target, counter in COUNTED_CLASSES:
        cls = getattr(*_resolve(target))
        cls.__init__ = _counting(cls.__init__, tracer, counter)


def _counting(init, tracer, counter):
    def counted(self, *args, **kwargs):
        tracer.count(counter)
        init(self, *args, **kwargs)

    return counted


# ----------------------------------------------------------------------
# The generated inputs
# ----------------------------------------------------------------------


def reseed(rows, seed: int) -> list:
    """Figure rows with every spec and baseline moved to ``seed``."""
    return [
        replace(
            row,
            spec=replace(row.spec, seed=seed),
            baseline=(
                None
                if row.baseline is None
                else replace(row.baseline, seed=seed)
            ),
        )
        for row in rows
    ]


def campaign_plan(workload: Workload, seed: int) -> list[tuple]:
    """``(figure, re-seeded rows)`` for every figure the workload runs."""
    from repro import exp

    return [
        (figure, reseed(figure.build(workload.scale), seed))
        for figure in exp.select_figures(workload.figures)
    ]


def distinct_specs(rows) -> list:
    """The distinct specs (rows plus baselines) in first-seen order, as
    ``Figure.specs`` lists them (it cannot be called on re-seeded rows:
    it rebuilds them at the registry seed)."""
    specs: dict = {}
    for row in rows:
        for spec in (row.spec, row.baseline):
            if spec is not None:
                specs.setdefault(spec.key(), spec)
    return list(specs.values())


def campaign_specs(workload: Workload, plan) -> list:
    """Every spec one rep submits, per figure for ``repro paper`` (which
    runs each figure's specs) and deduplicated for the queue."""
    if workload.kind == "queue":
        return distinct_specs(row for _, rows in plan for row in rows)
    return [spec for _, rows in plan for spec in distinct_specs(rows)]


# ----------------------------------------------------------------------
# The campaign, as the CLI runs it
# ----------------------------------------------------------------------


def _paper(analysis, workload, plan, store, runner, out) -> dict:
    """``_cmd_paper``'s loop over already-expanded figures."""
    entries = []
    total_simulated = total_skipped = 0
    for figure, rows in plan:
        specs = distinct_specs(rows)
        cached = sum(1 for spec in specs if spec.key() in store)
        todo = len(specs) - cached
        print(
            f"[{figure.name}] {len(rows)} rows / {len(specs)} specs: "
            f"{cached} already stored (skipped), {todo} to simulate"
        )
        runner.run(specs)
        total_simulated += runner.last_stats.simulated
        total_skipped += cached
        paths = analysis.write_figure_report(figure, rows, store, out)
        entries.append((figure, len(rows)))
        print(f"  wrote {paths['markdown']} and {paths['csv']}")
    index = analysis.write_index(
        out, entries, scale=workload.scale, store_path=store.path
    )
    print(
        f"report: {index} ({len(entries)} figures; "
        f"{total_simulated} simulated, {total_skipped} skipped via "
        f"{store.path})"
    )
    return {"failed": runner.stats.failed, "claim_cycles": 0, "queue_events": 0}


def _queue(exp, specs, runner, out) -> dict:
    """``_cmd_queue_enqueue`` then ``_cmd_queue_work`` on one directory."""
    queue = exp.WorkQueue(out)
    added = queue.enqueue(specs)
    print(f"enqueued {added} new spec(s) -> {queue.path}")
    worker = exp.WorkQueue(out, worker_id="bench-w0")
    report = exp.drain(worker, runner, batch=None, poll_seconds=0.5)
    status = worker.snapshot()
    print(
        f"[{worker.worker_id}] {report.claimed} claimed, "
        f"{runner.stats.simulated} simulated, {runner.stats.cached} cached, "
        f"{report.failed} failed; queue {status.done} done, "
        f"{status.failed} failed ({status.total} total)"
    )
    return {
        "failed": status.failed,
        "claim_cycles": report.cycles,
        "queue_events": len(worker.path.read_bytes().splitlines()),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and of the workers it reaped.

    Not this process's ``ru_maxrss``: exec carries the spawning process's
    high-water mark into it, so it would read ``run.py``'s size. The
    kernel's ``VmHWM`` covers this process since exec; a forked worker's
    ``ru_maxrss`` starts from its own size at fork.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) / 1024.0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--trace", default=None, metavar="TRACE_ID")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH.parent / "src"))

    import_start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every CLI invocation pays)

    import_end = time.perf_counter()
    from repro import analysis, exp

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.trace, worker_log=args.summary.with_suffix(".w"))
        tracer.add("setup", "import", import_start, import_end)
        install_tracing(tracer)

    workload = WORKLOADS[args.workload]
    plan = campaign_plan(workload, args.seed)
    out = args.dir
    out.mkdir(parents=True, exist_ok=True)
    store = exp.ResultStore(out, backend=workload.backend)
    summary = {
        "setup_mono": time.monotonic(),
        "import_s": import_end - import_start,
        "jobs": workload.jobs,
    }

    if not args.setup_only:
        runner = exp.Runner(
            store=store, jobs=workload.jobs, retries=2, timeout=None
        )
        if workload.kind == "queue":
            summary.update(_queue(exp, campaign_specs(workload, plan), runner, out))
        else:
            summary.update(_paper(analysis, workload, plan, store, runner, out))
        summary.update(
            simulated=runner.stats.simulated,
            cached=runner.stats.cached,
            sim_seconds=runner.stats.sim_seconds,
            runner_seconds=runner.stats.wall_seconds,
        )
    store.close()
    summary["peak_rss_mb"] = peak_rss_mb()

    if tracer is not None:
        summary["pid"] = tracer.pid
        summary["spans"], summary["counts"] = tracer.collect()
    args.summary.write_text(json.dumps(summary))
    return 3 if summary.get("failed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
