"""Tests for the durable lease-based work queue (``repro queue``).

Three layers: in-process protocol unit tests (enqueue/claim/lease
fold rules), drain-loop integration against the real Runner, and the
two acceptance scenarios — double-completion idempotence and the
multi-process chaos proof (three concurrent ``repro queue work``
processes, one SIGKILL'd mid-sweep, byte-identical recovery).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentSpec,
    ResultStore,
    Runner,
    WorkQueue,
    audit_store,
    drain,
    grid,
    load_spec_file,
    resolve_queue_path,
    result_to_json,
    spec_from_dict,
)
from repro.exp import runner as runner_mod
from repro.exp.pool import FaultTolerantPool

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

linux_only = pytest.mark.skipif(
    sys.platform != "linux", reason="subprocess chaos relies on fork workers"
)


def smoke_specs(variants=("base", "slicc", "steps")):
    base = ExperimentSpec("tpcc-1", scale="smoke", seed=7)
    return grid(base, {"variant": list(variants)})


def interleaved_specs(seeds=(1, 2, 3), variants=("base", "slicc")):
    """One spec per (variant, seed), in an order that cycles through the
    seeds' traces: A B C A B C."""
    return [
        spec
        for variant in variants
        for seed in seeds
        for spec in grid(
            ExperimentSpec("tpcc-1", scale="smoke", seed=seed),
            {"variant": [variant]},
        )
    ]


def write_specfile(tmp_path, axes=None):
    payload = {
        "workload": "tpcc-1",
        "scale": "smoke",
        "seed": 7,
        "variant": "slicc-sw",
        "axes": axes or {"slicc.dilution_t": [5, 10]},
        "baseline": True,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return str(path)


def queue_events(path):
    events = []
    for line in resolve_queue_path(path).read_bytes().splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn fragment
    return events


def campaign_specs(specfile):
    specs, baseline = load_spec_file(specfile)
    return list(specs) + ([baseline] if baseline else [])


class TestQueueProtocol:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path)
        specs = smoke_specs()
        assert queue.enqueue(specs) == 3
        assert queue.enqueue(specs) == 0
        # A grown grid only adds the new points.
        more = smoke_specs(variants=("base", "slicc", "steps", "nextline"))
        assert queue.enqueue(more) == 1
        assert queue.snapshot().pending == 4

    def test_enqueue_claims_one_trace_at_a_time(self, tmp_path):
        """Specs enqueued with their traces interleaved (A B C A B C)
        are claimed trace by trace (A A B B C C): groups in order of
        first appearance, input order within a group."""
        specs = interleaved_specs()
        a1, b1, c1, a2, b2, c2 = (s.key() for s in specs)
        queue = WorkQueue(tmp_path, worker_id="w")
        assert queue.enqueue(specs) == 6
        claimed = [c.key for c in queue.claim(limit=6)]
        assert claimed == [a1, a2, b1, b2, c1, c2]

    def test_enqueue_appends_once_per_call(self, tmp_path, monkeypatch):
        """All new ``enqueued`` events of one call go out in a single
        locked, fsync'd append; a call with nothing new writes nothing."""
        from repro.exp import queue as queue_mod

        writes = []
        real = queue_mod.append_lines

        def counting(path, data, torn=False):
            writes.append(data.count(b"\n"))
            real(path, data, torn)

        monkeypatch.setattr(queue_mod, "append_lines", counting)
        queue = WorkQueue(tmp_path)
        assert queue.enqueue(interleaved_specs()) == 6
        assert writes == [6]
        assert queue.enqueue(interleaved_specs()) == 0
        assert writes == [6]
        assert len(queue_events(tmp_path)) == 6

    def test_torn_enqueue_heals_when_rerun(self, tmp_path):
        """A crash inside the single enqueue write leaves whole events
        plus one torn line. Rerunning the same enqueue heals the tail,
        adds each missing spec exactly once, and the queue drains."""
        specs = interleaved_specs(seeds=(1, 2))
        WorkQueue(tmp_path).enqueue(specs)
        path = resolve_queue_path(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        cut = len(lines[0]) + len(lines[1]) + len(lines[2]) // 2
        os.truncate(path, cut)  # power loss mid-write: 2 whole events
        fresh = WorkQueue(tmp_path, worker_id="w")
        assert fresh.snapshot().total == 2
        assert fresh.enqueue(specs) == 2
        status = fresh.snapshot()
        assert status.total == 4 and status.pending == 4
        assert status.corrupt_events == 1
        assert WorkQueue(tmp_path).snapshot().corrupt_events == 1
        enqueued = [
            e["key"] for e in queue_events(tmp_path) if e["event"] == "enqueued"
        ]
        assert sorted(enqueued) == sorted(s.key() for s in specs)
        report = drain(
            fresh, Runner(store=ResultStore(tmp_path), jobs=1), poll_seconds=0.05
        )
        assert report.completed == 4 and report.failed == 0
        assert fresh.snapshot().done == 4

    def test_enqueue_shares_campaign_dir_with_store(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(smoke_specs())
        assert queue.path == tmp_path / "queue.jsonl"
        assert queue.lock_path.name == "queue.jsonl.lock"

    def test_claim_is_fifo_and_exclusive_across_instances(self, tmp_path):
        specs = smoke_specs()
        keys = [s.key() for s in specs]
        a = WorkQueue(tmp_path, worker_id="a")
        a.enqueue(specs)
        first = a.claim(limit=2)
        assert [c.key for c in first] == keys[:2]
        assert all(c.attempt == 1 and not c.reclaimed for c in first)
        # A second worker (separate instance, same file) only sees what
        # is left — live leases are exclusive.
        b = WorkQueue(tmp_path, worker_id="b")
        second = b.claim(limit=3)
        assert [c.key for c in second] == keys[2:]
        assert b.claim(limit=3) == []
        status = a.snapshot()
        assert status.leased == 3 and status.pending == 0
        assert status.workers == {"a": 2, "b": 1}

    def test_claim_payload_rebuilds_the_exact_spec(self, tmp_path):
        (spec,) = smoke_specs(variants=("slicc-sw",))
        queue = WorkQueue(tmp_path)
        queue.enqueue([spec])
        (claim,) = queue.claim()
        rebuilt = spec_from_dict(claim.payload)
        assert rebuilt.key() == spec.key() == claim.key
        assert rebuilt.config == spec.config

    def test_expired_lease_is_reclaimed_with_attempt_count(self, tmp_path):
        specs = smoke_specs(variants=("base",))
        a = WorkQueue(tmp_path, worker_id="a", lease_seconds=0.05)
        a.enqueue(specs)
        assert len(a.claim()) == 1
        time.sleep(0.2)  # past deadline + worker-b's small stagger
        b = WorkQueue(tmp_path, worker_id="b", backoff=0.001)
        deadline = time.monotonic() + 10
        claims = []
        while not claims and time.monotonic() < deadline:
            claims = b.claim()
            time.sleep(0.02)
        (claim,) = claims
        assert claim.reclaimed and claim.attempt == 2
        # The original holder discovers the loss on its next heartbeat.
        assert a.renew([claim.key]) == [claim.key]
        events = queue_events(tmp_path)
        assert any(
            e["event"] == "abandoned" and e["reason"] == "lease-expired"
            for e in events
        )

    def test_live_lease_is_not_reclaimable(self, tmp_path):
        a = WorkQueue(tmp_path, worker_id="a", lease_seconds=60)
        a.enqueue(smoke_specs(variants=("base",)))
        a.claim()
        b = WorkQueue(tmp_path, worker_id="b", backoff=0.001)
        assert b.claim() == []

    def test_claim_budget_exhaustion_fails_terminally(self, tmp_path):
        a = WorkQueue(
            tmp_path, worker_id="a", lease_seconds=0.05, max_claims=1
        )
        a.enqueue(smoke_specs(variants=("base",)))
        (claim,) = a.claim()
        time.sleep(0.1)
        b = WorkQueue(tmp_path, worker_id="b", backoff=0.001, max_claims=1)
        assert b.claim() == []
        status = b.snapshot()
        assert status.failed == 1 and status.leased == 0
        events = queue_events(tmp_path)
        (failure,) = [e for e in events if e["event"] == "failed"]
        assert failure["kind"] == "lease-expired"
        assert failure["key"] == claim.key

    def test_release_returns_leases_to_pending(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="a")
        queue.enqueue(smoke_specs())
        claims = queue.claim(limit=3)
        queue.release([c.key for c in claims[:2]])
        status = queue.snapshot()
        assert status.pending == 2 and status.leased == 1

    def test_renew_extends_only_own_live_leases(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="a", lease_seconds=60)
        queue.enqueue(smoke_specs(variants=("base", "slicc")))
        claims = queue.claim(limit=1)
        held = claims[0].key
        other = [s.key() for s in smoke_specs(variants=("slicc",))][0]
        lost = queue.renew([held, other, "no-such-key"])
        assert held not in lost
        assert set(lost) == {other, "no-such-key"}

    def test_mark_done_is_idempotent_and_supersedes_failed(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="a")
        queue.enqueue(smoke_specs(variants=("base",)))
        (claim,) = queue.claim()
        assert queue.mark_failed(claim.key, error="boom") is True
        assert queue.snapshot().failed == 1
        # The result exists after all: done supersedes failed …
        assert queue.mark_done(claim.key) is True
        status = queue.snapshot()
        assert status.done == 1 and status.failed == 0
        # … a second finish is a no-op, and failed never undoes done.
        assert queue.mark_done(claim.key) is False
        assert queue.mark_failed(claim.key, error="late loser") is False
        assert queue.snapshot().done == 1

    def test_torn_tail_heals_into_one_corrupt_event(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="a")
        queue.enqueue(smoke_specs(variants=("base", "slicc")))
        with queue.path.open("ab") as fh:  # power loss mid-append
            fh.write(b'{"event": "claimed", "key": "tor')
        fresh = WorkQueue(tmp_path, worker_id="b")
        fresh.enqueue(smoke_specs(variants=("steps",)))  # heals the tail
        status = fresh.snapshot()
        assert status.corrupt_events == 1
        assert status.pending == 3  # the torn claim never took
        lines = queue.path.read_bytes().splitlines()
        json.loads(lines[-1])  # the post-heal append is parseable

    def test_reclaim_expired_splits_released_and_exhausted(self, tmp_path):
        specs = smoke_specs(variants=("base", "slicc"))
        a = WorkQueue(
            tmp_path, worker_id="a", lease_seconds=0.05, max_claims=1
        )
        a.enqueue(specs)
        a.claim(limit=1)
        b = WorkQueue(tmp_path, worker_id="b", lease_seconds=0.05)
        b.claim(limit=1)
        time.sleep(0.1)
        # max_claims=1 for the operator instance: key a holds is over
        # budget; use a generous budget so b's key goes back to pending.
        op = WorkQueue(tmp_path, worker_id="op", max_claims=3)
        released, exhausted = op.reclaim_expired()
        assert len(released) == 2 and exhausted == []
        status = op.snapshot()
        assert status.pending == 2 and status.leased == 0

    def test_snapshot_payload_shape(self, tmp_path):
        queue = WorkQueue(tmp_path, worker_id="a", lease_seconds=0.01)
        queue.enqueue(smoke_specs())
        queue.claim(limit=1)
        time.sleep(0.05)
        payload = queue.snapshot().to_payload()
        assert payload["total"] == 3
        assert payload["pending"] == 2 and payload["leased"] == 1
        assert payload["stale_leases"] == 1
        assert payload["stale"][0]["worker"] == "a"
        assert payload["stale"][0]["overdue_seconds"] > 0
        assert payload["drained"] is False
        assert payload["workers"] == {"a": 1}

    def test_spec_from_dict_round_trip(self):
        for spec in smoke_specs(variants=("base", "slicc-sw")):
            rebuilt = spec_from_dict(spec.to_dict())
            assert rebuilt.key() == spec.key()

    def test_spec_from_dict_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"workload": "tpcc-1", "warp_drive": True})
        with pytest.raises(ConfigurationError):
            spec_from_dict("not a mapping")


class TestDrain:
    def test_drain_completes_a_queue(
        self, tmp_path, monkeypatch, backend="jsonl"
    ):
        """A two-job drain runs on one pool and claims a spec each time
        a slot frees, so the worker never holds more than two leases."""
        pools = []
        pool_init = FaultTolerantPool.__init__

        def counted(self, *args, **kwargs):
            pools.append(self)
            pool_init(self, *args, **kwargs)

        monkeypatch.setattr(FaultTolerantPool, "__init__", counted)
        specs = smoke_specs(variants=("base", "slicc", "steps", "slicc-sw"))
        queue = WorkQueue(tmp_path, worker_id="solo")
        queue.enqueue(specs)
        runner = Runner(store=ResultStore(tmp_path, backend=backend), jobs=2)
        report = drain(queue, runner, poll_seconds=0.05)
        assert len(pools) == 1
        assert report.completed == 4 and report.failed == 0
        assert report.claimed == 4 and report.reclaimed == 0
        assert report.cycles == 4
        assert runner.stats.simulated == 4 and runner.stats.sim_seconds > 0
        held = peak = 0
        for event in queue_events(tmp_path):
            if event["event"] == "claimed":
                held += 1
            elif event["event"] in ("done", "failed", "abandoned"):
                held -= 1
            peak = max(peak, held)
        assert peak == 2
        status = queue.snapshot()
        assert status.drained and status.done == 4
        assert set(runner.store.keys()) == {s.key() for s in specs}
        # A second worker arriving late finds nothing to do.
        again = drain(queue, Runner(store=ResultStore(tmp_path)), poll_seconds=0.05)
        assert again.claimed == 0

    def test_drain_completes_a_queue_sqlite(self, tmp_path, monkeypatch):
        self.test_drain_completes_a_queue(tmp_path, monkeypatch, "sqlite")

    def test_drain_serves_stored_results_without_simulating(self, tmp_path):
        """A claim whose result is already in the store (an earlier
        `repro exp`, or a worker that died before marking it done) is
        marked done as a cache hit."""
        specs = smoke_specs()
        runner = Runner(store=ResultStore(tmp_path), jobs=1)
        runner.run(specs[:2])
        queue = WorkQueue(tmp_path, worker_id="w")
        queue.enqueue(specs)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == 3 and report.claimed == 3
        assert runner.stats.simulated == 3  # two by run(), one drained
        assert runner.stats.cached == 2
        assert queue.snapshot().done == 3

    def test_drain_holds_at_most_the_trace_cache_bound(
        self, tmp_path, monkeypatch
    ):
        """A drain learns its specs one claim at a time, so traces are
        built where the specs run: more distinct traces than the cache
        bound never leave more than the bound alive, and specs sharing
        a trace build it once."""
        import gc
        import weakref

        bound = runner_mod._TRACE_CACHE_SIZE
        monkeypatch.setattr(runner_mod, "_TRACE_CACHE", {})
        built, alive_at_build = [], []
        real = runner_mod.standard_trace

        def counting(*args, **kwargs):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            trace = real(*args, **kwargs)
            built.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(runner_mod, "standard_trace", counting)
        specs = grid(
            ExperimentSpec("tpcc-1", scale="smoke", seed=1),
            {"variant": ["base", "slicc"]},
        ) + [
            ExperimentSpec("tpcc-1", scale="smoke", seed=seed)
            for seed in range(2, bound + 2)
        ]
        queue = WorkQueue(tmp_path, worker_id="w")
        queue.enqueue(specs)
        runner = Runner(store=ResultStore(tmp_path), jobs=1)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == len(specs)
        assert len(built) == bound + 1
        assert max(alive_at_build) == bound - 1
        assert len(runner_mod._TRACE_CACHE) == bound

    def test_drain_builds_each_trace_once(self, tmp_path, monkeypatch):
        """Claims follow trace groups, so a one-job drain of a queue
        enqueued A B C A B C builds three traces, where claiming in
        input order through a two-trace cache would build six."""
        monkeypatch.setattr(runner_mod, "_TRACE_CACHE", {})
        builds = []
        real = runner_mod.standard_trace

        def counting(*args, **kwargs):
            builds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "standard_trace", counting)
        queue = WorkQueue(tmp_path, worker_id="w")
        queue.enqueue(interleaved_specs())
        runner = Runner(store=ResultStore(tmp_path), jobs=1)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == 6
        assert builds == [1, 2, 3]

    def test_drain_reclaims_a_dead_workers_leases(
        self, tmp_path, backend="jsonl"
    ):
        specs = smoke_specs()
        dead = WorkQueue(tmp_path, worker_id="dead", lease_seconds=0.05)
        dead.enqueue(specs)
        assert len(dead.claim(limit=3)) == 3  # then "SIGKILL": no beats
        time.sleep(0.2)
        queue = WorkQueue(tmp_path, worker_id="live", backoff=0.001)
        runner = Runner(store=ResultStore(tmp_path, backend=backend), jobs=1)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == 3
        assert report.reclaimed == 3
        status = queue.snapshot()
        assert status.drained and status.done == 3 and not status.stale

    def test_drain_reclaims_a_dead_workers_leases_sqlite(self, tmp_path):
        self.test_drain_reclaims_a_dead_workers_leases(tmp_path, "sqlite")

    def test_drain_fails_bad_payload_entries_terminally(
        self, tmp_path, backend="jsonl"
    ):
        queue = WorkQueue(tmp_path, worker_id="w")
        queue.enqueue(smoke_specs(variants=("base",)))
        # A hand-edited / truncated queue can reference keys with no
        # payload; drain must fail them, not spin on them.
        queue._append_locked(
            {"event": "enqueued", "key": "deadbeef" * 8, "t": 0.0}
        )
        runner = Runner(store=ResultStore(tmp_path, backend=backend), jobs=1)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == 1
        status = queue.snapshot()
        assert status.drained and status.done == 1 and status.failed == 1
        events = queue_events(tmp_path)
        (failure,) = [e for e in events if e["event"] == "failed"]
        assert failure["kind"] == "bad-spec"

    def test_drain_fails_bad_payload_entries_terminally_sqlite(self, tmp_path):
        self.test_drain_fails_bad_payload_entries_terminally(tmp_path, "sqlite")

    def test_drain_maps_retired_kernel_names(self, tmp_path):
        """A queue written before the replay kernels collapsed to
        auto/reference carries retired ``config.kernel`` names in its
        payloads; it still drains, onto the same store keys."""
        retired = {
            "base": "inline",
            "slicc": "batch",
            "steps": "specialized",
            "nextline": "fallback",
        }
        specs = smoke_specs(variants=tuple(retired))
        queue = WorkQueue(tmp_path, worker_id="w")
        for spec in specs:
            payload = spec.to_dict()
            payload["config"]["kernel"] = retired[spec.variant]
            queue._append_locked(
                {"event": "enqueued", "key": spec.key(), "t": 0.0, "spec": payload}
            )
        peek = WorkQueue(tmp_path, worker_id="peek")
        claims = peek.claim(limit=4)
        kernels = {
            c.payload["config"]["kernel"]: spec_from_dict(c.payload).config.kernel
            for c in claims
        }
        assert kernels == {
            "inline": "auto",
            "batch": "auto",
            "specialized": "auto",
            "fallback": "reference",
        }
        for claim in claims:
            assert spec_from_dict(claim.payload).key() == claim.key
        peek.release([c.key for c in claims])
        runner = Runner(store=ResultStore(tmp_path), jobs=1)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == 4 and report.failed == 0
        assert set(runner.store.keys()) == {s.key() for s in specs}

    def test_drain_reads_payloads_that_carry_trace_id(self, tmp_path):
        """Queues written while specs still had a ``trace_id`` field
        carry it in every payload. ``null`` (every declarative spec)
        rebuilds to the queued key and drains; a fingerprint named an
        in-memory trace no worker can rebuild, so its entry settles
        ``failed`` as a bad spec that names the field."""
        legacy, fingerprinted = smoke_specs(variants=("base", "slicc"))
        queue = WorkQueue(tmp_path, worker_id="w")
        for spec, trace_id in ((legacy, None), (fingerprinted, "ab" * 32)):
            payload = {**spec.to_dict(), "trace_id": trace_id}
            queue._append_locked(
                {"event": "enqueued", "key": spec.key(), "t": 0.0, "spec": payload}
            )
        assert spec_from_dict({**legacy.to_dict(), "trace_id": None}) == legacy
        runner = Runner(store=ResultStore(tmp_path), jobs=1)
        report = drain(queue, runner, poll_seconds=0.05)
        assert report.completed == 1 and report.failed == 1
        assert set(runner.store.keys()) == {legacy.key()}
        status = queue.snapshot()
        assert status.drained and status.done == 1 and status.failed == 1
        (failure,) = [e for e in queue_events(tmp_path) if e["event"] == "failed"]
        assert failure["key"] == fingerprinted.key()
        assert failure["kind"] == "bad-spec" and "trace_id" in failure["error"]


class TestDoubleCompletion:
    def test_double_finish_is_byte_identical_and_collapses(
        self, tmp_path, backend="jsonl"
    ):
        """ACCEPTANCE: two workers race the same spec to completion; the
        store gains two byte-identical rows (JSONL) or upserts one
        (SQLite), loads one canonical result, and ``store verify`` stays
        clean."""
        (spec,) = smoke_specs(variants=("slicc-sw",))
        a = WorkQueue(tmp_path, worker_id="a", lease_seconds=0.05)
        a.enqueue([spec])
        # Both workers open the store before either has written: the
        # in-memory views are the pre-race snapshot, as they would be in
        # two processes.
        store_a = ResultStore(tmp_path, backend=backend)
        store_b = ResultStore(tmp_path, backend=backend)
        store_path = store_a.path
        (claim_a,) = a.claim()
        time.sleep(0.2)  # a's lease expires (its heartbeats "stopped")
        b = WorkQueue(tmp_path, worker_id="b", backoff=0.001)
        deadline = time.monotonic() + 10
        claims_b = []
        while not claims_b and time.monotonic() < deadline:
            claims_b = b.claim()
            time.sleep(0.02)
        (claim_b,) = claims_b
        assert claim_b.reclaimed

        Runner(store=store_b, jobs=1).run([spec])
        assert b.mark_done(claim_b.key) is True
        # Worker a was only paused, not dead: it finishes late and
        # double-writes, never having observed b's row.
        Runner(store=store_a, jobs=1).run([spec])
        assert a.mark_done(claim_a.key) is False  # late half: no-op

        if backend == "jsonl":
            lines = store_path.read_bytes().splitlines()
            assert len(lines) == 2
            assert lines[0] == lines[1]  # byte-identical duplicate row
        final = ResultStore(store_path)
        assert list(final.keys()) == [spec.key()]
        audit = audit_store(store_path)
        assert audit.clean and audit.keys == 1
        assert audit.superseded == (1 if backend == "jsonl" else 0)
        assert main(["store", "verify", str(store_path)]) == 0
        status = b.snapshot()
        assert status.done == 1 and status.drained

    def test_double_finish_is_byte_identical_and_collapses_sqlite(
        self, tmp_path
    ):
        self.test_double_finish_is_byte_identical_and_collapses(
            tmp_path, "sqlite"
        )


#: ``repro queue work`` flag values the worker must refuse.
_BAD_WORK_FLAGS = (
    ("--timeout", "0"),
    ("--max-claims", "0"),
    ("--poll", "0"),
    ("--poll", "-1"),
)


class TestQueueCLI:
    def test_enqueue_then_status(self, tmp_path, capsys):
        specfile = write_specfile(tmp_path)
        qdir = tmp_path / "campaign"
        assert main(["queue", "enqueue", specfile, str(qdir)]) == 0
        out = capsys.readouterr().out
        assert "enqueued 3 new spec(s)" in out
        assert main(["queue", "enqueue", specfile, str(qdir)]) == 0
        out = capsys.readouterr().out
        assert "enqueued 0 new spec(s)" in out and "already queued" in out
        assert main(["queue", "status", str(qdir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pending"] == 3 and payload["drained"] is False
        assert payload["stale_leases"] == 0

    def test_work_drains_and_store_verifies(
        self, tmp_path, capsys, backend="jsonl"
    ):
        specfile = write_specfile(tmp_path)
        qdir = tmp_path / "campaign"
        assert main(["queue", "enqueue", specfile, str(qdir)]) == 0
        capsys.readouterr()
        argv = ["queue", "work", str(qdir), "--poll", "0.05"]
        assert main(argv + ["--backend", backend]) == 0
        out = capsys.readouterr().out
        assert "3 claimed (0 reclaimed)" in out
        assert "3 simulated" in out
        assert "3 done" in out
        assert main(["queue", "status", str(qdir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 3 and payload["drained"] is True
        assert payload["store_backend"] == backend
        # The store lands next to the queue and verifies clean.
        assert main(["store", "verify", str(qdir), "--json"]) == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["clean"] is True and audit["keys"] == 3

    def test_work_drains_and_store_verifies_sqlite(self, tmp_path, capsys):
        self.test_work_drains_and_store_verifies(tmp_path, capsys, "sqlite")

    def test_work_reports_terminal_failures_as_exit_3(self, tmp_path, capsys):
        specfile = write_specfile(tmp_path, axes={"slicc.dilution_t": [5]})
        qdir = tmp_path / "campaign"
        assert main(["queue", "enqueue", specfile, str(qdir)]) == 0
        # Corrupt campaign: an entry whose payload cannot run.
        WorkQueue(qdir)._append_locked(
            {"event": "enqueued", "key": "deadbeef" * 8, "t": 0.0}
        )
        capsys.readouterr()
        assert main(["queue", "work", str(qdir), "--poll", "0.05"]) == 3
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert main(["queue", "status", str(qdir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 1 and payload["done"] == 2

    def test_status_diagnoses_stale_leases_and_reclaim_heals(
        self, tmp_path, capsys
    ):
        specfile = write_specfile(tmp_path)
        qdir = tmp_path / "campaign"
        assert main(["queue", "enqueue", specfile, str(qdir)]) == 0
        dead = WorkQueue(qdir, worker_id="dead", lease_seconds=0.05)
        assert len(dead.claim(limit=2)) == 2
        time.sleep(0.1)
        capsys.readouterr()
        assert main(["queue", "status", str(qdir)]) == 0
        out = capsys.readouterr().out
        assert "STALE" in out and "dead" in out
        assert main(["queue", "reclaim", str(qdir)]) == 0
        out = capsys.readouterr().out
        assert "reclaimed 2 expired lease(s)" in out
        assert main(["queue", "status", str(qdir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pending"] == 3 and payload["stale_leases"] == 0

    def test_missing_queue_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["queue", "status", str(tmp_path / "nowhere")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no queue at" in err and "queue enqueue" in err

    @pytest.mark.parametrize("action", ["status", "work", "reclaim"])
    def test_missing_queue_leaves_no_directory(self, tmp_path, action, capsys):
        path = tmp_path / "typo" / "campaign"
        assert main(["queue", action, str(path)]) == 2
        assert "no queue at" in capsys.readouterr().err
        assert not path.exists() and not path.parent.exists()

    @pytest.mark.parametrize(
        "field,value", [("steal_min_depth", -5), ("n_threads", 0), ("seed", "7")]
    )
    def test_enqueue_rejects_a_bad_spec_field(self, field, value, tmp_path, capsys):
        """No worker can finish such a spec: a steal depth below 1 never
        ends (its worker renews the lease forever), and a zero thread
        count or a string seed fails in every worker. It must not reach
        the queue."""
        if field == "steal_min_depth":
            bad = {"variant": "slicc", "overrides": {field: value}}
        else:
            bad = {field: value}
        specfile = tmp_path / "exp.json"
        specfile.write_text(
            json.dumps({"workload": "tpcc-1", "scale": "smoke", **bad})
        )
        qdir = tmp_path / "campaign"
        rc = main(["queue", "enqueue", str(specfile), str(qdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not resolve_queue_path(qdir).exists()

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param([flag, value], id=f"{flag}-{value}")
            for flag, value in _BAD_WORK_FLAGS
        ]
        + [
            pytest.param(
                [flag, value, "--backend", "sqlite"], id=f"{flag}-{value}-sqlite"
            )
            for flag, value in _BAD_WORK_FLAGS
        ],
    )
    def test_work_rejects_a_bad_flag(self, flags, tmp_path, capsys):
        """A zero timeout would fail every claimed spec terminally, and
        no later worker could run it; a zero poll would spin on the
        queue lock, and a negative one fail mid-drain. The worker must
        refuse the flag before it claims anything or opens a store: a
        SQLite store left behind would be the one a later worker on the
        directory resolves to."""
        qdir = tmp_path / "campaign"
        assert main(["queue", "enqueue", write_specfile(tmp_path), str(qdir)]) == 0
        capsys.readouterr()
        assert main(["queue", "work", str(qdir), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0][2:].replace("-", "_") in err
        assert main(["queue", "status", str(qdir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pending"] == 3 and payload["failed"] == 0
        assert payload["store_path"] is None

    def test_enqueue_bad_specfile_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "exp.json"
        bad.write_text(json.dumps({"workload": "tpcc-1", "axes": {"nope": [1]}}))
        rc = main(["queue", "enqueue", str(bad), str(tmp_path / "q")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


@linux_only
class TestInterruptedDrain:
    def test_sigint_settles_finished_specs_and_releases_the_rest(
        self, tmp_path, backend="jsonl"
    ):
        """SIGINT mid-drain on a two-process pool: the worker exits 130
        with every stored result marked done and no lease of its own
        left, and a second worker finishes the queue byte-identically
        to an in-process reference."""
        specfile = write_specfile(
            tmp_path, axes={"slicc.dilution_t": [2, 4, 6, 8, 10, 12]}
        )
        specs = campaign_specs(specfile)
        campaign = tmp_path / "campaign"
        assert main(["queue", "enqueue", specfile, str(campaign)]) == 0
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(REPO_ROOT, "src"),
            # Slow every spec down (sleep, then simulate) so the drain
            # is reliably mid-flight when the signal lands.
            REPRO_FAULT="hang:1",
            REPRO_FAULT_HANG_S="0.5",
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "queue",
                "work",
                str(campaign),
                "--jobs",
                "2",
                "--poll",
                "0.1",
                "--worker-id",
                "w1",
                "--backend",
                backend,
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(e["event"] == "done" for e in queue_events(campaign)):
                    break
                if proc.poll() is not None:  # pragma: no cover
                    pytest.fail(
                        "drain finished before the signal: "
                        + proc.communicate()[1]
                    )
                time.sleep(0.02)
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr

        stored = set(ResultStore(campaign).keys())
        assert 1 <= len(stored) < len(specs)
        done = {e["key"] for e in queue_events(campaign) if e["event"] == "done"}
        assert done == stored
        status = WorkQueue(campaign, worker_id="check").snapshot()
        assert "w1" not in status.workers and status.leased == 0
        assert status.pending == len(specs) - len(stored)

        runner = Runner(store=ResultStore(campaign), jobs=1)
        report = drain(
            WorkQueue(campaign, worker_id="w2"), runner, poll_seconds=0.05
        )
        assert report.completed == len(specs) - len(stored)
        assert runner.stats.simulated == report.completed
        final = ResultStore(campaign)
        assert final.backend == backend
        for spec, result in zip(specs, Runner().run(specs)):
            assert result_to_json(final.get(spec.key())) == result_to_json(
                result
            )
        assert audit_store(campaign).clean
        assert WorkQueue(campaign, worker_id="check").snapshot().done == len(
            specs
        )

    def test_sigint_settles_finished_specs_and_releases_the_rest_sqlite(
        self, tmp_path
    ):
        self.test_sigint_settles_finished_specs_and_releases_the_rest(
            tmp_path, "sqlite"
        )


@linux_only
class TestMultiProcessChaos:
    def test_three_workers_one_sigkilled_recover_byte_identical(
        self, tmp_path, backend="jsonl"
    ):
        """ACCEPTANCE: three concurrent ``repro queue work`` processes
        drain one campaign; the one holding leases is SIGKILL'd
        mid-sweep. The survivors (who themselves crash-and-retry every
        first attempt in-process) reclaim its orphans and finish; the
        recovered store is byte-identical per key to a fault-free
        in-process reference, with no row lost and zero stale leases."""
        axes = {"slicc.dilution_t": [2, 4, 6, 8, 10]}
        specfile = write_specfile(tmp_path, axes=axes)
        campaign = tmp_path / "campaign"

        # Fault-free reference, entirely in this process.
        all_specs = campaign_specs(specfile)
        keys = {s.key() for s in all_specs}
        ref = ResultStore(tmp_path / "reference.jsonl")
        Runner(store=ref, jobs=2).run(all_specs)

        assert main(["queue", "enqueue", specfile, str(campaign)]) == 0

        base_env = dict(
            os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")
        )
        base_env.pop("REPRO_FAULT", None)
        base_env.pop("REPRO_FAULT_HANG_S", None)

        def work(worker_id, fault=None, hang_s=None):
            env = dict(base_env)
            if fault:
                env["REPRO_FAULT"] = fault
            if hang_s:
                env["REPRO_FAULT_HANG_S"] = hang_s
            return subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "queue",
                    "work",
                    str(campaign),
                    "--jobs",
                    "1",
                    "--lease",
                    "1.5",
                    "--retries",
                    "2",
                    "--poll",
                    "0.1",
                    "--worker-id",
                    worker_id,
                    "--backend",
                    backend,
                ],
                env=env,
                cwd=REPO_ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )

        # The victim hangs inside every simulation, so it reliably sits
        # on a lease; heartbeats keep the lease live until the kill.
        victim = work("victim", fault="hang:1", hang_s="5")
        survivors = []
        try:
            queue = WorkQueue(campaign, worker_id="observer")
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if queue.snapshot().workers.get("victim"):
                    break
                assert victim.poll() is None, victim.communicate()[1]
                time.sleep(0.05)
            else:  # pragma: no cover - victim never claimed
                pytest.fail("victim never took a lease")

            # Survivors crash every first in-process attempt (retries
            # heal it) — the multi-process regime stacks on PR 7's.
            survivors = [
                work(w, fault="crash:1@1") for w in ("s1", "s2")
            ]
            time.sleep(0.3)  # let them start claiming alongside the victim
            victim.send_signal(signal.SIGKILL)
            # wait(), not communicate(): the victim's hung fork-worker
            # inherited its output pipes and keeps them open until the
            # injected hang elapses.
            assert victim.wait(timeout=30) == -signal.SIGKILL

            for proc in survivors:
                stdout, stderr = proc.communicate(timeout=300)
                assert proc.returncode == 0, stderr
        finally:
            for proc in [victim, *survivors]:
                if proc.poll() is None:  # pragma: no cover - hung child
                    proc.kill()
                    proc.wait(timeout=30)
                for pipe in (proc.stdout, proc.stderr):
                    if pipe is not None:
                        pipe.close()

        status = WorkQueue(campaign, worker_id="check").snapshot()
        assert status.drained
        assert status.done == len(keys) and status.failed == 0
        assert not status.stale

        # The victim's orphaned lease was explicitly reclaimed.
        events = queue_events(campaign)
        assert any(
            e["event"] == "abandoned"
            and e["worker"] == "victim"
            and e["reason"] == "lease-expired"
            for e in events
        )

        # No row lost, every row byte-identical to the reference.
        final = ResultStore(campaign)
        assert final.backend == backend
        assert set(final.keys()) == keys
        for key in keys:
            assert result_to_json(final.get(key)) == result_to_json(
                ref.get(key)
            )
        assert audit_store(campaign).clean

    def test_three_workers_one_sigkilled_recover_byte_identical_sqlite(
        self, tmp_path
    ):
        self.test_three_workers_one_sigkilled_recover_byte_identical(
            tmp_path, "sqlite"
        )
