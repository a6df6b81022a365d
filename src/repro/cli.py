"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``     simulate one workload under one or more variants
``exp``     run a declarative experiment spec file end-to-end
``paper``   reproduce the registered paper figures into a report
``queue``   enqueue / drain a durable multi-worker sweep queue
``store``   verify / compact / migrate a result store (jsonl or sqlite)
``info``    show workload and machine parameters

Exit codes
----------
0   success
1   ``store verify`` found corruption
2   usage or configuration error (bad spec file, unknown field, ...)
3   a sweep completed but one or more specs failed after retries
130 interrupted (SIGINT/SIGTERM); completed results are persisted.
    The first signal drains in-flight work; a second one aborts it
    immediately (still 130, nothing further persisted).

Examples::

    python -m repro run tpcc-1 --variants base slicc-sw --threads 32
    python -m repro run tpce --variants base slicc slicc-sw --jobs 4
    python -m repro exp experiments/phased_mix.json --jobs 8 --store results/
    python -m repro paper --scale smoke --out report/
    python -m repro paper --figures fig7-thresholds fig8-dilution --jobs 4
    python -m repro queue enqueue experiments/phased_mix.json campaign/
    python -m repro queue work campaign/ --jobs 4   # on many machines
    python -m repro queue status campaign/ --json
    python -m repro exp experiments/phased_mix.json --store results/ \\
        --backend sqlite                      # indexed store for big sweeps
    python -m repro store migrate results/ results/export.jsonl
    python -m repro info tpce
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from repro.analysis import format_table, write_figure_report, write_index
from repro.errors import ConfigurationError, ReproError, SweepFailure
from repro.exp import (
    STORE_BACKENDS,
    ResultStore,
    Runner,
    audit_store,
    compact_store,
    describe_store,
    figure_names,
    locate_store,
    migrate_store,
    select_figures,
    summarize,
)
from repro.exp.figures import row_specs
from repro.params import ScalePreset
from repro.sched import policy_names
from repro.workloads import DEFAULT_THREADS, get_workload, workload_names

def _add_workload(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=workload_names())
    parser.add_argument(
        "--scale",
        choices=[s.value for s in ScalePreset],
        default="ci",
        help="workload scale preset (default: ci)",
    )


def _add_exec(
    parser: argparse.ArgumentParser,
    store_help: str = "persist results under DIR; reruns become "
    "incremental (default: in-memory only)",
) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the experiment runner (default: 1)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=store_help,
    )
    parser.add_argument(
        "--backend",
        choices=STORE_BACKENDS,
        default=None,
        help="format of a new store: jsonl (append-only file, the "
        "default) or sqlite (WAL database with an index on the spec key "
        "— right for very large sweeps). A store path's suffix, or the "
        "store already in the directory, decides instead; a flag that "
        "contradicts either is an error",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per spec for transient failures — worker death, "
        "engine exceptions — with exponential backoff (default: 2)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-spec wall-clock timeout; a hung simulation's worker "
        "is killed and the spec marked timed_out (default: none)",
    )


def _make_runner(args: argparse.Namespace, default_store=None) -> Runner:
    """The runner for ``--jobs/--store/--backend/--retries/--timeout``;
    ``default_store`` is where results persist without ``--store``
    (in memory when neither is given)."""
    runner = Runner(jobs=args.jobs, retries=args.retries, timeout=args.timeout)
    path = args.store or default_store
    if path:
        # Opened once the runner accepted its flags: a rejected flag
        # creates no store.
        runner.store = ResultStore(path, backend=args.backend)
    return runner


def _fault_suffix(stats) -> str:
    """Render the failure counters when any recovery machinery fired."""
    parts = []
    if stats.failed:
        parts.append(f"{stats.failed} failed")
    if stats.timed_out:
        parts.append(f"{stats.timed_out} timed out")
    if stats.retried:
        parts.append(f"{stats.retried} retried")
    return (", " + ", ".join(parts)) if parts else ""


def _print_stats(runner: Runner, specs=None) -> None:
    stats = runner.last_stats
    if stats.simulated or stats.failed:
        line = (
            f"[{stats.simulated} simulated, {stats.cached} cached"
            f"{_fault_suffix(stats)} | "
            f"wall {stats.wall_seconds:.2f}s, "
            f"sim {stats.sim_seconds:.2f}s]"
        )
        print(line)
        if specs and stats.spec_seconds:
            # Name the slowest simulated specs (the ones that bound the
            # sweep's wall time) so scaling wins/losses are visible.
            label_by_key = {spec.key(): spec.display_label() for spec in specs}
            slowest = sorted(
                stats.spec_seconds.items(), key=lambda kv: -kv[1]
            )[:3]
            shown = ", ".join(
                f"{label_by_key.get(key, key[:8])} {seconds:.2f}s"
                for key, seconds in slowest
            )
            print(f"[slowest: {shown}]")
    elif stats.cached:
        print(f"[{stats.simulated} simulated, {stats.cached} cached]")


def _failure_table(failures) -> str:
    """Per-spec failure table for a sweep that lost rows."""
    rows = [
        [
            outcome.spec.display_label(),
            outcome.spec.variant,
            outcome.kind,
            outcome.attempts,
            (outcome.error or "")[:60],
        ]
        for outcome in failures
    ]
    return format_table(
        ["label", "variant", "failure", "attempts", "error"],
        rows,
        title=f"{len(failures)} spec(s) failed after retries",
    )


def _run_family(args: argparse.Namespace, family, title: str) -> int:
    """Run a ``(specs, baseline spec or None)`` family and print its
    summary table: the one execution path of ``run`` and ``exp``."""
    specs, baseline_spec = family
    runner = _make_runner(args)
    all_specs = specs if baseline_spec is None else [baseline_spec] + specs
    try:
        results = runner.run(all_specs)
    except SweepFailure as failure:
        # The sweep ran to completion; report what survived, table what
        # did not, and exit non-zero so CI pipelines notice.
        completed = [
            (spec, result)
            for spec, result in zip(all_specs, failure.results)
            if result is not None
        ]
        if completed:
            print(summarize(completed, title=f"{title} — completed specs"))
        print(_failure_table(failure.failures), file=sys.stderr)
        _print_stats(runner, specs=all_specs)
        return 3
    baseline = None
    if baseline_spec is not None:
        baseline, results = results[0], results[1:]
    title = f"{title} — {len(specs)} points"
    print(summarize(list(zip(specs, results)), baseline=baseline, title=title))
    _print_stats(runner, specs=all_specs)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.exp.specfile import specs_from_payload

    variants = list(args.variants)
    if "base" not in variants:
        variants.insert(0, "base")
    # The spec-file payload `repro exp` reads, so both share store keys.
    payload = {
        "workload": args.workload,
        "scale": args.scale,
        "n_threads": args.threads,
        "seed": args.seed,
        "baseline": True,
        "axes": {"variant": variants},
    }
    family = specs_from_payload(payload)
    return _run_family(args, family, f"run {args.workload}")


def _cmd_exp(args: argparse.Namespace) -> int:
    from repro.exp.specfile import load_spec_file

    return _run_family(args, load_spec_file(args.specfile), args.specfile)


def _cmd_paper(args: argparse.Namespace) -> int:
    if args.list:
        rows = [
            [figure.name, figure.title, len(figure.build(args.scale))]
            for figure in select_figures()
        ]
        print(format_table(["figure", "title", "rows"], rows,
                           title=f"registered figures ({args.scale} scale)"))
        return 0

    figures = select_figures(args.figures)
    out = Path(args.out)
    # The runner checks its flags before --out exists: a rejected flag
    # leaves nothing behind.
    runner = _make_runner(args)
    out.mkdir(parents=True, exist_ok=True)
    if args.store is None:
        # The store lives inside the report directory by default, so
        # pointing a second invocation at the same --out is what makes
        # it resumable.
        runner.store = ResultStore(out, backend=args.backend)
    store = runner.store

    entries = []
    total_simulated = total_skipped = 0
    for figure in figures:
        rows = figure.build(args.scale)
        specs = row_specs(rows)
        cached = sum(1 for spec in specs if spec.key() in store)
        todo = len(specs) - cached
        print(
            f"[{figure.name}] {len(rows)} rows / {len(specs)} specs: "
            f"{cached} already stored (skipped), {todo} to simulate"
        )
        runner.run(specs)
        total_simulated += runner.last_stats.simulated
        total_skipped += cached
        paths = write_figure_report(figure, rows, store, out)
        entries.append((figure, len(rows)))
        print(f"  wrote {paths['markdown']} and {paths['csv']}")
    index = write_index(out, entries, scale=args.scale, store_path=store.path)
    print(
        f"report: {index} ({len(entries)} figures; "
        f"{total_simulated} simulated, {total_skipped} skipped via "
        f"{store.path})"
    )
    return 0


def _audit_rows(audit) -> list[list[object]]:
    return [
        ["backend", f"{audit.backend} (schema v{audit.schema_version})"],
        ["lines", audit.lines],
        ["result rows", audit.result_rows],
        ["failure rows", audit.failure_rows],
        ["live keys", audit.keys],
        ["live failures", audit.live_failures],
        ["superseded rows", audit.superseded],
        ["blank lines", audit.blank],
        ["corrupt lines", audit.corrupt],
        ["integrity", audit.integrity],
    ]


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    if not args.dst:
        raise ConfigurationError(
            "migrate needs a destination: "
            "repro store migrate <src> <dst>"
        )
    report = migrate_store(args.path, args.dst)
    print(
        f"migrated {report.src} ({report.src_backend}) -> {report.dst} "
        f"({report.dst_backend}): {report.results} result row(s), "
        f"{report.failures} failure row(s), {report.quarantined} "
        f"quarantined line(s) carried over"
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    if args.action == "migrate":
        return _cmd_store_migrate(args)
    if args.dst:
        raise ConfigurationError(
            f"`store {args.action}` takes one path; a destination only "
            "makes sense for `store migrate`"
        )
    _, file = locate_store(args.path)
    if not file.exists():
        # A mistyped path must not pass as an empty, clean store.
        raise ConfigurationError(f"no store at {file}")
    if args.action == "verify":
        audit = audit_store(args.path)
        if args.json:
            payload = asdict(audit)
            payload["path"] = str(audit.path)
            payload["clean"] = audit.clean
            payload["reclaimable"] = audit.reclaimable
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0 if audit.clean else 1
        print(
            format_table(
                ["property", "count"],
                _audit_rows(audit),
                title=f"store verify — {audit.path}",
            )
        )
        if not audit.clean:
            print(
                f"CORRUPT: {audit.corrupt} unparseable line(s); run "
                f"`repro store compact {args.path}` to quarantine and "
                "rewrite",
                file=sys.stderr,
            )
            return 1
        print(
            f"clean ({audit.keys} results"
            + (f", {audit.live_failures} live failures" if audit.live_failures else "")
            + (f", {audit.reclaimable} reclaimable lines" if audit.reclaimable else "")
            + ")"
        )
        return 0
    before, kept = compact_store(args.path)
    if before.backend == "sqlite":
        print(
            f"compacted {before.path}: {before.lines} rows -> {kept} "
            f"kept ({before.corrupt} corrupt -> quarantine table; "
            "WAL checkpointed, database vacuumed)"
        )
        return 0
    print(
        f"compacted {before.path}: {before.lines} lines -> {kept} rows "
        f"(dropped {before.superseded} superseded, {before.blank} blank, "
        f"{before.corrupt} corrupt"
        + (" -> quarantine sidecar" if before.corrupt else "")
        + ")"
    )
    return 0


def _require_queue(args: argparse.Namespace, worker_id=None):
    """Open an existing :class:`~repro.exp.queue.WorkQueue`, or fail
    with a usage error (exit 2).

    Only ``enqueue`` creates queues — a worker pointed at a queue that
    was never enqueued is a typo'd path, not an empty campaign.
    """
    from repro.exp.queue import WorkQueue

    kwargs = {}
    if worker_id is not None:
        kwargs["worker_id"] = worker_id
    for name in ("lease", "max_claims"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs["lease_seconds" if name == "lease" else name] = value
    queue = WorkQueue(args.queue, **kwargs)
    if not queue.exists():
        raise ConfigurationError(
            f"no queue at {queue.path}; create one with "
            f"`repro queue enqueue <specfile> {args.queue}`"
        )
    return queue


def _print_queue_status(status) -> None:
    print(
        f"queue {status.path}: {status.pending} pending, "
        f"{status.leased} leased, {status.done} done, "
        f"{status.failed} failed ({status.total} total)"
    )


def _cmd_queue_enqueue(args: argparse.Namespace) -> int:
    from repro.exp.queue import WorkQueue
    from repro.exp.specfile import load_spec_file

    specs, baseline_spec = load_spec_file(args.specfile)
    all_specs = specs if baseline_spec is None else [baseline_spec] + specs
    queue = WorkQueue(args.queue)
    added = queue.enqueue(all_specs)
    skipped = len(all_specs) - added
    print(
        f"enqueued {added} new spec(s)"
        + (f" ({skipped} already queued or duplicate keys)" if skipped else "")
        + f" -> {queue.path}"
    )
    _print_queue_status(queue.snapshot())
    return 0


def _cmd_queue_work(args: argparse.Namespace) -> int:
    from repro.exp.queue import check_poll, drain

    queue = _require_queue(args, worker_id=args.worker_id)
    # Refused before the runner opens the store: a rejected flag
    # creates no store.
    check_poll(args.poll)
    runner = _make_runner(args, default_store=queue.path.parent)
    report = drain(queue, runner, poll_seconds=args.poll)
    stats = runner.stats
    print(
        f"[{queue.worker_id}] {report.claimed} claimed "
        f"({report.reclaimed} reclaimed), {stats.simulated} simulated, "
        f"{stats.cached} cached, {report.failed} failed | "
        f"wall {stats.wall_seconds:.2f}s, sim {stats.sim_seconds:.2f}s"
    )
    status = queue.snapshot()
    _print_queue_status(status)
    return 3 if status.failed else 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    queue = _require_queue(args)
    status = queue.snapshot()
    # The campaign's store lives next to the queue by convention; name
    # its backend and schema so nightly/chaos gates can assert on them.
    store_info = describe_store(queue.path.parent)
    if args.json:
        payload = status.to_payload()
        payload["store_backend"] = (
            store_info["backend"] if store_info else None
        )
        payload["store_schema_version"] = (
            store_info["schema_version"] if store_info else None
        )
        payload["store_path"] = store_info["path"] if store_info else None
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        ["pending", status.pending],
        ["leased", status.leased],
        ["done", status.done],
        ["failed", status.failed],
        ["stale leases", len(status.stale)],
        ["corrupt events", status.corrupt_events],
        ["total", status.total],
    ]
    print(format_table(["state", "count"], rows,
                       title=f"queue status — {status.path}"))
    for worker, count in sorted(status.workers.items()):
        print(f"  worker {worker}: {count} lease(s)")
    for stale in status.stale:
        print(
            f"  STALE: {stale.key[:12]}… leased by {stale.worker}, "
            f"expired {stale.overdue:.1f}s ago after {stale.claims} "
            f"claim(s) — workers reclaim it automatically, or run "
            f"`repro queue reclaim`"
        )
    if store_info:
        print(
            f"store: {store_info['backend']} "
            f"(schema v{store_info['schema_version']}) at "
            f"{store_info['path']}"
        )
    if status.drained:
        print("drained: no pending work, no live leases")
    return 0


def _cmd_queue_reclaim(args: argparse.Namespace) -> int:
    queue = _require_queue(args, worker_id="reclaim-cli")
    released, exhausted = queue.reclaim_expired()
    print(
        f"reclaimed {len(released)} expired lease(s) back to pending; "
        f"{len(exhausted)} failed terminally (claim budget exhausted)"
    )
    _print_queue_status(queue.snapshot())
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    scale = ScalePreset(args.scale)
    spec = get_workload(args.workload, scale)
    blocks = spec.footprint_blocks()
    rows = [
        ["transaction types", len(spec.txn_types)],
        ["code segments", len(spec.segments)],
        ["code footprint", f"{blocks * 64 // 1024}KB ({blocks} blocks)"],
        ["default threads", DEFAULT_THREADS[scale]],
        ["store fraction", spec.data.store_frac],
    ]
    print(format_table(["property", "value"], rows, title=spec.name))
    for txn in spec.txn_types:
        footprint = spec.type_footprint_blocks(txn.type_id) * 64 // 1024
        print(
            f"  {txn.name:20s} weight={txn.weight:5.1f} "
            f"path={len(txn.path)} visits, footprint={footprint}KB"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLICC (MICRO 2012) reproduction toolkit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0    success\n"
            "  1    `store verify` found corruption\n"
            "  2    usage or configuration error\n"
            "  3    sweep (or queue drain) completed but specs failed\n"
            "       after retries\n"
            "  130  interrupted; the first SIGINT/SIGTERM drains and\n"
            "       persists in-flight work, a second aborts it\n"
            "       immediately (nothing further persisted)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="simulate a workload under variants",
        description="Simulate one workload under each --variants entry "
        "plus base, and tabulate them against base. The specs are the "
        "ones `repro exp` builds from the equivalent spec file (with "
        "\"baseline\": true), so run, exp, paper and the queue share "
        "store keys: a --threads equal to the scale's default names the "
        "same trace as leaving it out. A registry figure is one `repro "
        "paper --figures NAME` away; run any other grid as a spec file.",
    )
    _add_workload(run)
    run.add_argument("--threads", type=int, default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--variants",
        nargs="+",
        # Derived from the scheduling-policy registry: a newly registered
        # policy appears here (and in spec files, which validate through
        # SimConfig) with no CLI edit.
        choices=policy_names(),
        default=["base", "slicc-sw"],
    )
    _add_exec(run)
    run.set_defaults(func=_cmd_run)

    exp = sub.add_parser(
        "exp",
        help="run a declarative experiment spec file",
        description="Run a declarative experiment spec file end-to-end. "
        "Per-spec failures (poison specs, timeouts, worker deaths that "
        "survive --retries) do not abort the sweep: every other spec "
        "completes and persists, the failures are tabulated, and the "
        "exit code is 3. Exit codes: 0 = all specs completed, 2 = "
        "usage/configuration error, 3 = one or more specs failed after "
        "retries, 130 = interrupted (completed results are persisted).",
    )
    exp.add_argument("specfile", help="JSON spec file (see repro.exp.specfile)")
    _add_exec(exp)
    exp.set_defaults(func=_cmd_exp)

    paper = sub.add_parser(
        "paper",
        help="reproduce the paper's figure set into a markdown/CSV report",
    )
    paper.add_argument(
        "--figures",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"figures to run (default: all of {figure_names()})",
    )
    paper.add_argument(
        "--scale",
        choices=[s.value for s in ScalePreset],
        default="smoke",
        help="scale preset for every figure (default: smoke)",
    )
    paper.add_argument(
        "--out",
        default="report",
        metavar="DIR",
        help="report directory (default: report/)",
    )
    paper.add_argument(
        "--list",
        action="store_true",
        help="list registered figures and exit",
    )
    _add_exec(paper)
    paper.set_defaults(func=_cmd_paper)

    queue = sub.add_parser(
        "queue",
        help="durable multi-worker sweep queue (enqueue/work/status/reclaim)",
        description="Drain one sweep with any number of independent "
        "worker processes on a shared filesystem. `enqueue` appends a "
        "spec file's grid to a durable queue file; each `work` process "
        "claims specs under a heartbeat-renewed lease, simulates them "
        "with the normal runner (same --retries/--timeout semantics), "
        "and records results in the store next to the queue. If a "
        "worker is SIGKILL'd its leases expire and surviving workers "
        "reclaim them; content-hashed spec keys make the resulting "
        "at-least-once execution safe (a duplicate finish writes a "
        "byte-identical row).",
    )
    qsub = queue.add_subparsers(dest="action", required=True)

    q_enqueue = qsub.add_parser(
        "enqueue", help="append a spec file's grid to a queue"
    )
    q_enqueue.add_argument(
        "specfile", help="JSON spec file (see repro.exp.specfile)"
    )
    q_enqueue.add_argument(
        "queue", help="queue directory or queue.jsonl file (created)"
    )
    q_enqueue.set_defaults(func=_cmd_queue_enqueue)

    q_work = qsub.add_parser(
        "work",
        help="drain a queue as one worker process",
        description="Claim, simulate and complete queued specs until "
        "the queue is drained. Run any number of these concurrently — "
        "on one machine or many sharing the filesystem. Each worker "
        "keeps one pool of --jobs processes for its whole drain and "
        "claims one spec whenever a slot frees; each spec's lease is "
        "settled (done or failed) from that spec's own outcome. "
        "--retries covers a pool process that dies or raises, which "
        "this worker sees at once; --max-claims covers a whole worker "
        "that dies, which only its expired lease reveals. Exit codes: "
        "0 = queue drained, all specs done; 2 = usage/configuration "
        "error; 3 = queue drained but some specs failed terminally; "
        "130 = interrupted — the first SIGINT/SIGTERM stops claiming, "
        "then finishes, persists and settles the specs already "
        "claimed; a second signal aborts in-flight work immediately "
        "and releases its leases for other workers (nothing further "
        "persisted, still 130). Workers starting together on an empty "
        "campaign must all pass the same --backend.",
    )
    q_work.add_argument("queue", help="queue directory or queue.jsonl file")
    _add_exec(
        q_work,
        store_help="result store (default: the campaign directory next "
        "to the queue)",
    )
    q_work.add_argument(
        "--lease",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="lease seconds per claim; a heartbeat renews held leases "
        "every lease/4, so a dead worker's specs free up after at most "
        "one lease period (default: 60)",
    )
    q_work.add_argument(
        "--max-claims",
        type=int,
        default=3,
        metavar="N",
        help="total claims allowed per spec before an expired lease "
        "fails terminally instead of being reclaimed — the budget for "
        "whole workers dying on a spec, apart from --retries "
        "(default: 3)",
    )
    q_work.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="idle poll interval while other workers hold leases "
        "(default: 0.5)",
    )
    q_work.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="explicit worker identity (default: host-pid-random); "
        "chaos profiles use fixed ids for deterministic schedules",
    )
    q_work.set_defaults(func=_cmd_queue_work)

    q_status = qsub.add_parser(
        "status",
        help="pending/leased/done/failed counts + stale-lease diagnostics",
    )
    q_status.add_argument("queue", help="queue directory or queue.jsonl file")
    q_status.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON (for CI assertions)",
    )
    q_status.set_defaults(func=_cmd_queue_status)

    q_reclaim = qsub.add_parser(
        "reclaim",
        help="return expired leases to pending without waiting for "
        "workers to reclaim them",
    )
    q_reclaim.add_argument("queue", help="queue directory or queue.jsonl file")
    q_reclaim.set_defaults(func=_cmd_queue_reclaim)

    store = sub.add_parser(
        "store",
        help="verify / compact / migrate a result store (jsonl or sqlite)",
        description="Maintain a campaign's result store (JSONL file or "
        "SQLite database: a store file's suffix names the format, a "
        "directory uses the store in it). `verify` and `compact` exit 2 "
        "when no store exists at the path. `verify` "
        "audits without modifying anything and exits 1 when corruption "
        "is found (line scan for jsonl; row scan + PRAGMA "
        "integrity_check for sqlite); `compact` garbage-collects "
        "(atomic rewrite dropping superseded history for jsonl; "
        "idempotent re-upsert + WAL checkpoint + VACUUM for sqlite), "
        "quarantining corrupt rows either way; `migrate <src> <dst>` "
        "converts between backends with byte-identical result rows, "
        "quarantined lines included.",
    )
    store.add_argument("action", choices=["verify", "compact", "migrate"])
    store.add_argument(
        "path", help="store directory or store file (as given to --store)"
    )
    store.add_argument(
        "dst",
        nargs="?",
        default=None,
        help="migration destination (migrate only): a store file, "
        "whose suffix picks the target format, or a directory (its "
        "existing store, else a new JSONL one)",
    )
    store.add_argument(
        "--json",
        action="store_true",
        help="machine-readable audit JSON (verify only; same exit codes)",
    )
    store.set_defaults(func=_cmd_store)

    info = sub.add_parser("info", help="show workload parameters")
    _add_workload(info)
    info.set_defaults(func=_cmd_info)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Exit codes: 0 success; 1 ``store verify`` found corruption; 2
    usage/configuration error; 3 sweep completed with failed specs;
    130 interrupted (completed results are persisted).

    SIGTERM raises ``KeyboardInterrupt`` here as SIGINT does, so one
    that lands outside the runner's drain (the store open, the trace
    builds before the first spec, the reports between two figures)
    also exits 130. The previous handler is restored on return.
    """
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except KeyboardInterrupt:
        # The runner drains on SIGINT/SIGTERM: in-flight simulations
        # finished and persisted before this propagated.
        print(
            "interrupted — completed results are persisted; rerun to "
            "resume",
            file=sys.stderr,
        )
        return 130
    except SweepFailure as failure:
        # paper surfaces sweep failures here (run and exp render
        # their own table alongside the partial summary).
        print(_failure_table(failure.failures), file=sys.stderr)
        print(f"error: {failure}", file=sys.stderr)
        return 3
    except (ReproError, OSError, ValueError) as exc:
        # User-input problems (bad spec files, unknown fields or values,
        # unreadable paths — json.JSONDecodeError is a ValueError) end as
        # one-line errors, not tracebacks; engine bugs (SimulationError
        # is a ReproError too, but unexpected) still surface their
        # message — rerun under python -X dev for a trace.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)
