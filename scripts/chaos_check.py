#!/usr/bin/env python
"""Seeded chaos run for CI: faults on, sweep, heal, verify.

Two regimes, selected by ``--processes``:

**Single process** (default). Drives a smoke-scale sweep through the
fault-tolerant Runner under a deterministic ``REPRO_FAULT`` profile
(worker crashes, hangs bounded by a per-spec timeout, torn store
appends), then re-runs fault-free against the same store and asserts the
recovery contract held end to end:

* the chaos pass never takes the process down — every fault is either
  retried to success or recorded as a structured failure row;
* the fault-free resume completes every remaining spec, serving healthy
  rows from the store (no wasted re-simulation);
* after ``compact`` the store audits clean and holds exactly one live
  result per spec, byte-identical to a fault-free reference run.

**Multi process** (``--processes N``, N >= 2). Enqueues the sweep on a
durable work queue and drains it with N independent ``repro queue work``
processes under a seeded profile that kills *whole workers*: a scanned
seed makes exactly worker ``w0`` die (``os._exit``) right after its
first claim, holding fresh leases; one surviving worker is additionally
SIGKILL'd from outside while it holds a lease; claim and renewal events
are torn at random. The assertions are the distributed recovery
contract:

* the surviving workers reclaim every orphaned lease and finish the
  sweep with no terminal failures and zero stale leases;
* the recovered store holds exactly one live result per spec,
  byte-identical to a fault-free reference run — at-least-once
  execution never changes results;
* ``repro queue status --json`` agrees (drained, nothing failed).

Both regimes are store-backend aware: run with ``--backend sqlite`` and
the campaign store is created as SQLite instead of JSONL (the flag is
forwarded to every ``repro queue work`` process). The recovery contract
is asserted identically, plus a migration
gate: the recovered store is migrated across backends (always ending at
JSONL) and the re-exported rows must still be byte-identical to the
fault-free reference — format conversion after a chaotic campaign loses
nothing. Under SQLite the ``torn_write`` fault is inert by design (WAL
commits are atomic); crash/die/hang faults exercise WAL crash recovery
instead, and the pinned single-process assertions only involve those.

Faults are injected only inside this process tree and the profile is
seeded, so the schedule — and therefore this script's outcome — is
reproducible. Run from the repo root:

    python scripts/chaos_check.py [--seed N] [--store DIR] [--processes N]
        [--backend jsonl|sqlite]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.errors import SweepFailure  # noqa: E402
from repro.exp import (  # noqa: E402
    STORE_BACKENDS,
    ExperimentSpec,
    ResultStore,
    Runner,
    WorkQueue,
    audit_store,
    compact_store,
    grid,
    locate_store,
    migrate_store,
    result_to_json,
    spec_for,
)
from repro.exp.faults import CRASH_EXIT_CODE, parse_fault_spec  # noqa: E402
from repro.params import ScalePreset  # noqa: E402
from repro.workloads import standard_trace  # noqa: E402

#: Every fault kind at once, probabilities high enough that a smoke grid
#: reliably exercises crash-retry, timeout-kill and torn-append paths.
CHAOS_PROFILE = "crash:0.4,hang:0.15,torn_write:0.5"
HANG_SECONDS = "30"  # park hung workers well past the timeout
TIMEOUT_SECONDS = 3.0

#: With this seed the deterministic schedule covers the whole recovery
#: matrix on the smoke grid: at least one crash-then-retry success, one
#: crash-doomed failure, one timeout kill, and torn appends.
DEFAULT_SEED = 2

#: Multi-process profile: whole-worker death, in-pool crashes, a short
#: first-attempt hang on every spec (widens the lease/kill windows; no
#: timeout, so it is never terminal), and torn claim/renewal events.
#: No `torn_write`: a torn result row with the process still alive would
#: mark entries done without a durable row — a state no real crash
#: produces (a dying writer never reaches mark_done). The single-process
#: regime owns that fault; here the store path stays untorn.
MP_PROFILE = "die:0.4@1,crash:0.35,hang:1@1,torn_queue:0.5"
MP_HANG_SECONDS = "0.5"
MP_LEASE_SECONDS = 2.0
MP_RETRIES = 2


def build_specs(trace):
    return grid(
        spec_for(trace, variant="slicc-sw"),
        {
            "variant": ["base", "slicc", "slicc-sw"],
            "slicc.dilution_t": [0, 5],
        },
    )


def build_declarative_specs():
    """The same grid, declaratively — queue workers rebuild the trace
    themselves, so enqueued specs cannot pin an in-memory trace."""
    return grid(
        ExperimentSpec("tpcc-1", scale="smoke", seed=7),
        {
            "variant": ["base", "slicc", "slicc-sw"],
            "slicc.dilution_t": [0, 5],
        },
    )


def check_migration(campaign: Path, keys, reference) -> None:
    """Migration invariant under chaos: the recovered store survives a
    backend conversion with every result row byte-identical.

    A SQLite campaign migrates straight to JSONL; a JSONL campaign
    round-trips through SQLite and back. Either way the last hop is a
    JSONL export, so the gate matches what the nightly artifact check
    asserts. The hop files use non-default names, so they never
    confuse the campaign directory's backend detection.
    """
    active, _ = locate_store(campaign)
    if active == "sqlite":
        hops = [campaign / "migrate-check.jsonl"]
    else:
        hops = [
            campaign / "migrate-check.sqlite",
            campaign / "migrate-check.jsonl",
        ]
    src: Path = campaign
    for dst in hops:
        migrate_store(src, dst)
        src = dst
    exported = ResultStore(hops[-1])
    assert set(exported.keys()) == set(keys), (
        "migration dropped spec rows: "
        f"{sorted(set(keys) - set(exported.keys()))[:3]}…"
    )
    for key in keys:
        assert result_to_json(exported.get(key)) == reference[key], (
            f"migrated row for {key[:12]} diverges from the fault-free "
            "reference"
        )
    chain = " -> ".join([active] + [h.suffix.lstrip(".") for h in hops])
    print(
        f"  migration check: {chain} byte-identical ({len(keys)} rows)"
    )


def run_single(args) -> int:
    trace = standard_trace("tpcc-1", ScalePreset.SMOKE, seed=7)
    specs = build_specs(trace)
    keys = {spec.key() for spec in specs}
    reference = {
        spec.key(): result_to_json(
            Runner().run([spec], trace=trace)[0]
        )
        for spec in specs
    }

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-chaos-")
    store_path = Path(store_dir)

    # -- chaos pass ----------------------------------------------------
    os.environ["REPRO_FAULT"] = CHAOS_PROFILE
    os.environ["REPRO_FAULT_SEED"] = str(args.seed)
    os.environ["REPRO_FAULT_HANG_S"] = HANG_SECONDS
    print(f"chaos pass: REPRO_FAULT={CHAOS_PROFILE} seed={args.seed}")
    runner = Runner(
        store=ResultStore(store_path, backend=args.backend),
        jobs=4,
        retries=2,
        timeout=TIMEOUT_SECONDS,
        backoff=0.05,
    )
    failed = 0
    try:
        runner.run(specs, trace=trace)
    except SweepFailure as failure:
        failed = len(failure.failures)
    stats = runner.last_stats
    print(
        f"  chaos stats: {stats.simulated} simulated, {stats.failed} "
        f"failed ({stats.timed_out} timed out), {stats.retried} retried"
    )
    # Duplicate keys in the grid (base ignores the slicc axes) are
    # served as cache hits, so account for all three buckets.
    assert stats.simulated + stats.failed + stats.cached == len(
        specs
    ), "specs went missing"
    assert failed == stats.failed
    if args.seed == DEFAULT_SEED:
        # The default schedule is pinned to cover the whole matrix.
        assert stats.retried >= 1, "no crash-retry exercised"
        assert stats.timed_out >= 1, "no timeout kill exercised"
        assert stats.failed >= 2, "no retries-exhausted failure exercised"

    # -- fault-free resume --------------------------------------------
    for var in ("REPRO_FAULT", "REPRO_FAULT_SEED", "REPRO_FAULT_HANG_S"):
        os.environ.pop(var, None)
    with warnings.catch_warnings():
        # Torn appends from the chaos pass are expected corruption.
        warnings.simplefilter("ignore")
        resumed = Runner(store=ResultStore(store_path), jobs=4)
        resumed.run(specs, trace=trace)
    print(
        f"  resume stats: {resumed.last_stats.simulated} simulated, "
        f"{resumed.last_stats.cached} cached"
    )
    assert resumed.last_stats.simulated + resumed.last_stats.cached == len(
        specs
    )

    # -- store integrity ----------------------------------------------
    before, kept = compact_store(store_path)
    audit = audit_store(store_path)
    print(
        f"  compact: {before.lines} lines -> {kept} rows "
        f"({before.corrupt} corrupt quarantined)"
    )
    assert audit.clean, f"store still corrupt after compact: {audit}"
    assert audit.live_failures == 0, "resume left failure rows live"
    final = ResultStore(store_path)
    assert set(final.keys()) == keys, "store is missing spec rows"
    for key in keys:
        assert result_to_json(final.get(key)) == reference[key], (
            f"chaos-recovered row for {key[:12]} diverges from the "
            "fault-free reference"
        )
    check_migration(store_path, keys, reference)
    print(
        f"chaos check passed: {len(keys)} specs recovered byte-identical "
        f"under {CHAOS_PROFILE!r} ({args.backend} store)"
    )
    return 0


def scan_mp_seed(worker_ids, keys, start: int) -> int:
    """First seed >= start whose schedule kills exactly ``w0`` (and no
    other worker) at its first claim, dooms no spec (some crash-free
    attempt within the retry budget), and crashes at least one first
    attempt so the in-pool retry path runs too."""
    for seed in range(start, start + 5000):
        plan = parse_fault_spec(MP_PROFILE, seed=seed)
        dies = [w for w in worker_ids if plan.should("die", w, 0)]
        if dies != [worker_ids[0]]:
            continue
        doomed = [
            k
            for k in keys
            if all(plan.should("crash", k, a) for a in range(MP_RETRIES + 1))
        ]
        if doomed:
            continue
        if not any(plan.should("crash", k, 0) for k in keys):
            continue
        return seed
    raise AssertionError("no suitable multi-process chaos seed found")


def _queue_events(queue_path: Path) -> list[dict]:
    events = []
    for line in queue_path.read_text(encoding="utf-8").splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn claim/renewal fragments — expected
    return events


def run_multi(args) -> int:
    n = args.processes
    assert n >= 2, "--processes needs at least 2 workers"
    specs = build_declarative_specs()
    keys = {spec.key() for spec in specs}
    reference = {
        spec.key(): result_to_json(Runner().run([spec])[0]) for spec in specs
    }

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-chaos-mp-")
    campaign = Path(store_dir)
    queue = WorkQueue(campaign, worker_id="chaos-observer")
    enqueued = queue.enqueue(specs)
    print(
        f"multi-process chaos: {enqueued} specs enqueued "
        f"({len(specs) - enqueued} grid points share keys), "
        f"{n} workers"
    )
    assert enqueued == len(keys)

    worker_ids = [f"w{i}" for i in range(n)]
    seed = scan_mp_seed(worker_ids, sorted(keys), args.seed)
    print(f"  profile: REPRO_FAULT={MP_PROFILE} seed={seed} (scanned)")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_FAULT"] = MP_PROFILE
    env["REPRO_FAULT_SEED"] = str(seed)
    env["REPRO_FAULT_HANG_S"] = MP_HANG_SECONDS

    def spawn(worker_id):
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "queue",
                "work",
                str(campaign),
                "--jobs",
                "2",
                "--lease",
                str(MP_LEASE_SECONDS),
                "--retries",
                str(MP_RETRIES),
                "--max-claims",
                "6",
                "--poll",
                "0.2",
                "--worker-id",
                worker_id,
                "--backend",
                args.backend,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    # w0 starts alone so it definitely claims first — and dies at its
    # first claim cycle, leaving its fresh leases orphaned.
    procs = {worker_ids[0]: spawn(worker_ids[0])}
    out0, _ = procs[worker_ids[0]].communicate(timeout=60)
    rc0 = procs[worker_ids[0]].returncode
    print(f"  {worker_ids[0]}: exit {rc0} (injected die)")
    assert rc0 == CRASH_EXIT_CODE, (
        f"{worker_ids[0]} should have died with {CRASH_EXIT_CODE}, "
        f"got {rc0}: {out0}"
    )
    orphaned = queue.snapshot().leased
    print(f"  {worker_ids[0]} left {orphaned} orphaned lease(s)")
    assert orphaned >= 1, "die victim claimed nothing — no orphans to prove"

    survivors = worker_ids[1:]
    for worker_id in survivors:
        procs[worker_id] = spawn(worker_id)

    # SIGKILL one survivor from outside while it holds a live lease —
    # the case where not even os._exit runs. Keep at least one worker.
    sigkilled = None
    deadline = time.time() + 30
    while sigkilled is None and time.time() < deadline:
        snap = queue.snapshot()
        if snap.drained:
            break
        if len(survivors) >= 2:
            for worker_id in survivors[:-1]:
                proc = procs[worker_id]
                if proc.poll() is None and snap.workers.get(worker_id, 0):
                    os.kill(proc.pid, signal.SIGKILL)
                    sigkilled = worker_id
                    print(f"  SIGKILL'd {worker_id} holding a lease")
                    break
        else:
            break
        time.sleep(0.05)
    if sigkilled is None and len(survivors) >= 2:
        print("  note: drain finished before the SIGKILL window opened")

    outputs = {}
    for worker_id in survivors:
        out, _ = procs[worker_id].communicate(timeout=180)
        outputs[worker_id] = out
    for worker_id in survivors:
        rc = procs[worker_id].returncode
        if worker_id == sigkilled:
            assert rc == -signal.SIGKILL, f"{worker_id}: expected -9, got {rc}"
            continue
        print(f"  {worker_id}: exit {rc}")
        assert rc == 0, f"{worker_id} failed ({rc}): {outputs[worker_id]}"

    # -- distributed recovery contract ---------------------------------
    snap = queue.snapshot()
    assert snap.drained, f"queue not drained: {snap}"
    assert snap.done == len(keys), f"{snap.done}/{len(keys)} done"
    assert snap.failed == 0, f"terminal queue failures: {snap.failed}"
    assert not snap.stale, f"stale leases remain: {snap.stale}"
    events = _queue_events(queue.path)
    abandoned = [e for e in events if e.get("event") == "abandoned"]
    assert abandoned, "no lease was ever reclaimed — chaos did not chaos"

    status_json = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "queue",
            "status",
            str(campaign),
            "--json",
        ],
        env={k: v for k, v in env.items() if not k.startswith("REPRO_FAULT")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert status_json.returncode == 0, status_json.stderr
    payload = json.loads(status_json.stdout)
    assert payload["drained"] and payload["stale_leases"] == 0, payload
    assert payload["done"] == len(keys) and payload["failed"] == 0, payload
    # The payload must name the campaign's store backend and schema so
    # CI legs can pin the leg they think they are running.
    assert payload["store_backend"] == args.backend, payload
    assert payload["store_schema_version"] == 1, payload

    before, kept = compact_store(campaign)
    audit = audit_store(campaign)
    print(
        f"  store: {before.lines} lines -> {kept} rows "
        f"({before.superseded} duplicate finishes collapsed)"
    )
    assert audit.clean and audit.live_failures == 0, audit
    final = ResultStore(campaign)
    assert set(final.keys()) == keys, "store is missing spec rows"
    for key in keys:
        assert result_to_json(final.get(key)) == reference[key], (
            f"multi-process row for {key[:12]} diverges from the "
            "fault-free reference"
        )
    check_migration(campaign, keys, reference)
    print(
        f"multi-process chaos check passed: {len(keys)} specs, "
        f"{len(abandoned)} lease reclaim(s), workers lost: "
        f"{worker_ids[0]} (die)"
        + (f" + {sigkilled} (SIGKILL)" if sigkilled else "")
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="fault seed (multi-process mode scans upward from here)",
    )
    parser.add_argument(
        "--store", default=None, help="store directory (default: temp)"
    )
    parser.add_argument(
        "--backend",
        choices=STORE_BACKENDS,
        default="jsonl",
        help="store format to chaos-test, passed to every store this "
        "run creates and every worker it spawns (default: jsonl)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="drain via N independent `repro queue work` processes with "
        "whole-worker kills (default: 1 = single-process regime)",
    )
    args = parser.parse_args(argv)
    if args.processes > 1:
        return run_multi(args)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
