"""Durable, lease-based work queue for multi-process sweep execution.

PR 7 made one ``Runner`` process crash-safe; this module removes the
remaining single point of failure — the coordinating process itself. A
sweep is *enqueued* once, and any number of independent ``repro queue
work`` processes (started at different times, on any machine sharing the
filesystem) drain it against one :class:`~repro.exp.store.ResultStore`.
There is no coordinator: every fact lives in an append-only queue file
built from the same primitives as the store.

**Queue file.** ``queue.jsonl`` next to the store, one fsync'd JSON
event per line, appended under an advisory ``flock`` on a ``.lock``
sidecar with the store's self-healing torn-tail rule. Queue *state* is
the fold of the events, last-wins per spec key:

========== ==========================================================
event      meaning / fold rule
========== ==========================================================
enqueued   create a ``pending`` entry carrying the spec payload
           (duplicate keys are ignored — enqueue is idempotent)
claimed    entry becomes ``leased`` by ``worker`` until ``deadline``;
           the per-key claim count increments (ignored on terminal
           entries)
renewed    heartbeat — extends ``deadline`` iff still leased by the
           same worker
abandoned  lease given up (voluntarily on interrupt, or by whichever
           worker reclaimed it after expiry) — entry back to
           ``pending``
done       terminal success; a second ``done`` is a no-op, and
           ``done`` supersedes an earlier ``failed`` (store parity)
failed     terminal failure (unless already ``done``) with the error
           recorded
========== ==========================================================

**Leases.** A claim is an appended ``claimed`` event with the worker id
and a wall-clock deadline; a heartbeat thread renews held leases at a
quarter of the lease period. If a worker is SIGKILL'd (or its machine
drops off the filesystem), its heartbeats stop, the deadline passes, and
*any* worker may reclaim the entry — staggered by the PR-7 deterministic
backoff/jitter keyed on ``(spec key, claiming worker)`` so a fleet
noticing the same orphan does not thundering-herd the lock — up to a
per-key claim budget, after which the entry fails terminally.

**Why at-least-once is safe.** A lost ``done`` (torn write, worker dying
after persisting the result but before the event) means a spec may run
twice. Spec keys are content hashes and the engine is deterministic, so
the second run appends a byte-identical result row; the store's
last-wins load collapses it and the late ``mark_done`` is a no-op. Every
transition is validated against a fresh fold *under the file lock* (a
claim that did not survive the append is simply not held), so torn queue
events degrade to lost work, never to wrong results.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.errors import ConfigurationError, ReproError, SweepFailure
from repro.exp import faults
from repro.exp.pool import _backoff_delay
from repro.exp.spec import ExperimentSpec, spec_from_dict
from repro.exp.store import append_lines, flocked

__all__ = [
    "ClaimedSpec",
    "DrainReport",
    "LeaseHeartbeat",
    "QueueStatus",
    "StaleLease",
    "WorkQueue",
    "drain",
    "resolve_queue_path",
]

#: Entry states produced by folding the event log.
PENDING, LEASED, DONE, FAILED = "pending", "leased", "done", "failed"

_EVENTS = frozenset(
    ("enqueued", "claimed", "renewed", "done", "failed", "abandoned")
)

#: Queue events whose torn loss is recoverable by design and may
#: therefore be torn by the ``torn_queue`` fault kind. Tearing terminal
#: events would be modelled wrong: a worker that appended ``done``
#: without crashing still believes (correctly) that the result is in
#: the store.
_TEARABLE_EVENTS = frozenset(("claimed", "renewed"))


def resolve_queue_path(path: Union[str, Path]) -> Path:
    """Normalise a queue argument to its backing ``queue.jsonl`` file.

    A directory maps to ``<dir>/queue.jsonl`` (so queue and store share
    a campaign directory) and a ``*.jsonl`` path is taken as-is; any
    other file-looking path is rejected rather than made a directory.
    """
    path = Path(path)
    if path.is_dir() or not path.suffix:
        return path / "queue.jsonl"
    if path.suffix != ".jsonl":
        raise ConfigurationError(
            f"queue path {path} looks like a file but is not *.jsonl; "
            "pass a directory or a .jsonl file"
        )
    return path


def default_worker_id() -> str:
    """A worker id unique across hosts and process lifetimes."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class _Entry:
    """Folded state of one spec key."""

    key: str
    payload: dict
    seq: int
    status: str = PENDING
    worker: Optional[str] = None
    deadline: float = 0.0
    #: Total ``claimed`` events folded for this key (the claim budget).
    claims: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class ClaimedSpec:
    """One lease handed out by :meth:`WorkQueue.claim`."""

    key: str
    #: The ``enqueued`` spec payload (``ExperimentSpec.to_dict`` shape).
    payload: dict
    #: 1-based claim number for this key (>1 means it was reclaimed or
    #: released at least once before).
    attempt: int
    #: True when this claim took over an expired lease from another
    #: worker rather than picking up fresh pending work.
    reclaimed: bool = False


@dataclass(frozen=True)
class StaleLease:
    """Diagnostic for a lease whose deadline has passed."""

    key: str
    worker: Optional[str]
    #: Seconds past the deadline.
    overdue: float
    claims: int


@dataclass
class QueueStatus:
    """Snapshot of a queue's folded state (``repro queue status``)."""

    path: Path
    total: int = 0
    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0
    #: Event lines that failed to parse (torn claims/renewals, manual
    #: edits); harmless — a torn event is a transition that never took.
    corrupt_events: int = 0
    stale: list[StaleLease] = field(default_factory=list)
    #: Live lease counts per worker id.
    workers: dict[str, int] = field(default_factory=dict)

    @property
    def drained(self) -> bool:
        """Nothing left to run: no pending work and no live leases."""
        return self.pending == 0 and self.leased == 0

    def to_payload(self) -> dict:
        """JSON-ready rendering for ``repro queue status --json``."""
        return {
            "path": str(self.path),
            "total": self.total,
            "pending": self.pending,
            "leased": self.leased,
            "done": self.done,
            "failed": self.failed,
            "stale": [
                {
                    "key": s.key,
                    "worker": s.worker,
                    "overdue_seconds": round(s.overdue, 3),
                    "claims": s.claims,
                }
                for s in self.stale
            ],
            "stale_leases": len(self.stale),
            "corrupt_events": self.corrupt_events,
            "drained": self.drained,
            "workers": dict(self.workers),
        }


class WorkQueue:
    """Lease-based work queue over one append-only event file.

    Thread-safe within a process (the heartbeat thread shares the
    instance with the work loop) and multi-process safe across instances
    via the file lock. Every public mutation follows the same shape:
    take the lock, fold any new events, validate the transition against
    the fresh state, append, fold again — so two workers can never hold
    the same live lease, no matter how their schedulers interleave.

    Args:
        path: queue directory or ``*.jsonl`` file (see
            :func:`resolve_queue_path`).
        worker_id: identity used for claims; defaults to a
            host-pid-random id. Pass an explicit id for deterministic
            chaos profiles.
        lease_seconds: lease duration granted per claim/renewal.
        max_claims: total ``claimed`` events allowed per key before an
            expired lease fails terminally instead of being reclaimed
            (guards against a spec that kills every worker that touches
            it).
        backoff: base seconds of the deterministic reclaim stagger.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        worker_id: Optional[str] = None,
        lease_seconds: float = 60.0,
        max_claims: int = 3,
        backoff: float = 0.5,
    ) -> None:
        if lease_seconds <= 0:
            raise ConfigurationError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        self._path = resolve_queue_path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = float(lease_seconds)
        self.max_claims = max(1, int(max_claims))
        self.backoff = backoff
        self._mutex = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._offset = 0  # byte offset of the first unfolded event
        self._next_seq = 0
        self.corrupt_events = 0

    @property
    def path(self) -> Path:
        """Backing event file."""
        return self._path

    @property
    def lock_path(self) -> Path:
        """Sidecar lockfile serialising appends across processes."""
        return self._path.with_name(self._path.name + ".lock")

    def exists(self) -> bool:
        """Has anything ever been enqueued here?"""
        return self._path.exists()

    # -- locking, folding, appending ------------------------------------

    @contextmanager
    def _locked(self):
        """Process mutex + advisory file lock (in that order, always)."""
        with self._mutex, flocked(self.lock_path):
            yield

    def _refresh_locked(self) -> None:
        """Fold events appended since the last refresh (lock held).

        Only newline-terminated lines are consumed; a torn tail stays
        unfolded until the next appender heals it, at which point the
        fragment parses as one corrupt line and is skipped.
        """
        if not self._path.exists():
            return
        with self._path.open("rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        end = data.rfind(b"\n")
        if end < 0:
            return
        chunk = data[: end + 1]
        self._offset += len(chunk)
        for raw in chunk.split(b"\n")[:-1]:
            line = raw.strip()
            if not line:
                continue
            event = _parse_event(line)
            if event is None:
                self.corrupt_events += 1
                continue
            self._fold(event)

    def _fold(self, event: dict) -> None:
        kind = event["event"]
        key = event["key"]
        entry = self._entries.get(key)
        if entry is None:
            # Non-enqueued events for unknown keys (hand-truncated log)
            # still synthesize an entry so accounting stays consistent;
            # their empty payload makes claim() fail them, not run them.
            self._next_seq += 1
            entry = self._entries[key] = _Entry(
                key=key,
                payload=dict(event.get("spec") or {}),
                seq=self._next_seq,
            )
            if kind == "enqueued":
                return
        if kind == "enqueued":
            return  # duplicate enqueue of a known key: idempotent no-op
        if kind == "claimed":
            if entry.status in (DONE, FAILED):
                return
            entry.status = LEASED
            entry.worker = event.get("worker")
            entry.deadline = float(event.get("deadline") or 0.0)
            entry.claims += 1
        elif kind == "renewed":
            if entry.status == LEASED and entry.worker == event.get("worker"):
                entry.deadline = float(event.get("deadline") or 0.0)
        elif kind == "abandoned":
            if entry.status == LEASED:
                entry.status = PENDING
                entry.worker, entry.deadline = None, 0.0
        elif kind == "done":
            # Unconditional, including over an earlier `failed`: the
            # result exists, and results outrank failure provenance
            # exactly as in the store.
            entry.status = DONE
            entry.worker, entry.deadline, entry.error = None, 0.0, None
        elif kind == "failed":
            if entry.status != DONE:
                entry.status = FAILED
                entry.worker, entry.deadline = None, 0.0
                entry.error = event.get("error")

    def _append_locked(self, event: dict) -> None:
        """Crash-safe single-line event append (lock held), through the
        store's :func:`~repro.exp.store.append_lines`. The
        ``torn_queue`` fault kind may tear claim/renewal events — the
        two whose loss the protocol absorbs without operator action.
        """
        line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
        plan = faults.active_plan()
        torn = (
            plan is not None
            and event["event"] in _TEARABLE_EVENTS
            and plan.should_tear(
                f"{event['key']}:{event['event']}", kind="torn_queue"
            )
        )
        append_lines(self._path, line, torn)

    def _fail_exhausted(self, entry: _Entry, now: float) -> None:
        """Append the terminal ``failed`` event of an expired lease whose
        claim budget is spent (lock held)."""
        self._append_locked(
            {
                "event": "failed",
                "key": entry.key,
                "t": now,
                "worker": self.worker_id,
                "kind": "lease-expired",
                "error": (
                    f"lease expired under worker {entry.worker!r} and the "
                    f"claim budget ({self.max_claims}) is exhausted"
                ),
            }
        )

    def _ordered(self) -> list[_Entry]:
        return sorted(self._entries.values(), key=lambda e: e.seq)

    # -- the protocol ----------------------------------------------------

    def enqueue(self, specs: Iterable[ExperimentSpec]) -> int:
        """Append ``enqueued`` events for specs not already queued.

        Returns the number of *new* entries; duplicate keys (within the
        batch or against the existing queue) are skipped, so re-running
        an enqueue after adding grid points only adds the new points.

        Raises:
            ConfigurationError: for a spec bound to an explicit
                in-memory trace — its trace exists only in the enqueuing
                process and no independent worker could ever rebuild it.
        """
        now = time.time()
        added = 0
        with self._locked():
            self._refresh_locked()
            for spec in specs:
                if spec.trace_id is not None:
                    raise ConfigurationError(
                        "cannot enqueue a spec bound to an explicit "
                        "in-memory trace (trace_id set): queue workers "
                        "run in other processes and rebuild traces "
                        "declaratively"
                    )
                key = spec.key()
                if key in self._entries:
                    continue
                self._append_locked(
                    {
                        "event": "enqueued",
                        "key": key,
                        "t": now,
                        "spec": spec.to_dict(),
                    }
                )
                self._refresh_locked()
                added += 1
        return added

    def claim(self, limit: int = 1) -> list[ClaimedSpec]:
        """Claim up to ``limit`` entries: pending first (FIFO), then
        expired leases eligible for reclamation.

        An expired lease is reclaimed only once ``now`` has passed the
        deadline *plus* this worker's deterministic backoff for that
        key, so workers that all notice the same orphan take it in a
        staggered, reproducible order instead of storming the lock. An
        expired lease whose claim budget is exhausted fails terminally
        instead.
        """
        now = time.time()
        with self._locked():
            self._refresh_locked()
            picks: list[tuple[_Entry, bool]] = []
            for entry in self._ordered():
                if len(picks) >= limit:
                    break
                if entry.status != PENDING:
                    continue
                if not entry.payload:
                    self._append_locked(
                        {
                            "event": "failed",
                            "key": entry.key,
                            "t": now,
                            "worker": self.worker_id,
                            "kind": "bad-spec",
                            "error": "queue entry has no spec payload",
                        }
                    )
                    continue
                picks.append((entry, False))
            for entry in self._ordered():
                if len(picks) >= limit:
                    break
                if entry.status != LEASED or now < entry.deadline:
                    continue
                if entry.claims >= self.max_claims:
                    self._fail_exhausted(entry, now)
                    continue
                stagger = _backoff_delay(
                    self.backoff,
                    f"{entry.key}:{self.worker_id}",
                    entry.claims,
                )
                if now < entry.deadline + stagger:
                    continue
                self._append_locked(
                    {
                        "event": "abandoned",
                        "key": entry.key,
                        "t": now,
                        "worker": entry.worker,
                        "by": self.worker_id,
                        "reason": "lease-expired",
                    }
                )
                picks.append((entry, True))
            deadline = now + self.lease_seconds
            for entry, _ in picks:
                self._append_locked(
                    {
                        "event": "claimed",
                        "key": entry.key,
                        "t": now,
                        "worker": self.worker_id,
                        "deadline": deadline,
                        "attempt": entry.claims + 1,
                    }
                )
            self._refresh_locked()
            # Only claims that survived the append (torn claim events
            # fold to nothing) are actually held.
            out = []
            for entry, reclaimed in picks:
                current = self._entries.get(entry.key)
                if (
                    current is not None
                    and current.status == LEASED
                    and current.worker == self.worker_id
                ):
                    out.append(
                        ClaimedSpec(
                            key=entry.key,
                            payload=current.payload,
                            attempt=current.claims,
                            reclaimed=reclaimed,
                        )
                    )
            return out

    def renew(self, keys: Sequence[str]) -> list[str]:
        """Extend this worker's leases; returns the keys it *lost*
        (reclaimed by someone else or already terminal)."""
        now = time.time()
        lost = []
        with self._locked():
            self._refresh_locked()
            for key in keys:
                entry = self._entries.get(key)
                if (
                    entry is None
                    or entry.status != LEASED
                    or entry.worker != self.worker_id
                ):
                    lost.append(key)
                    continue
                self._append_locked(
                    {
                        "event": "renewed",
                        "key": key,
                        "t": now,
                        "worker": self.worker_id,
                        "deadline": now + self.lease_seconds,
                    }
                )
            self._refresh_locked()
        return lost

    def release(self, keys: Sequence[str]) -> None:
        """Voluntarily abandon held leases (interrupted worker), so
        other workers pick them up immediately instead of waiting for
        expiry."""
        now = time.time()
        with self._locked():
            self._refresh_locked()
            for key in keys:
                entry = self._entries.get(key)
                if (
                    entry is not None
                    and entry.status == LEASED
                    and entry.worker == self.worker_id
                ):
                    self._append_locked(
                        {
                            "event": "abandoned",
                            "key": key,
                            "t": now,
                            "worker": self.worker_id,
                            "by": self.worker_id,
                            "reason": "released",
                        }
                    )
            self._refresh_locked()

    def mark_done(self, key: str) -> bool:
        """Record terminal success. Returns ``False`` (a no-op) when the
        entry is already done — the late half of a double finish."""
        now = time.time()
        with self._locked():
            self._refresh_locked()
            entry = self._entries.get(key)
            if entry is not None and entry.status == DONE:
                return False
            self._append_locked(
                {
                    "event": "done",
                    "key": key,
                    "t": now,
                    "worker": self.worker_id,
                }
            )
            self._refresh_locked()
            entry = self._entries.get(key)
            return entry is not None and entry.status == DONE

    def mark_failed(self, key: str, error: str, kind: str = "error") -> bool:
        """Record terminal failure (unless the entry already succeeded,
        in which case the result wins and this is a no-op)."""
        now = time.time()
        with self._locked():
            self._refresh_locked()
            entry = self._entries.get(key)
            if entry is not None and entry.status == DONE:
                return False
            self._append_locked(
                {
                    "event": "failed",
                    "key": key,
                    "t": now,
                    "worker": self.worker_id,
                    "kind": kind,
                    "error": error,
                }
            )
            self._refresh_locked()
            return True

    def reclaim_expired(self) -> tuple[list[str], list[str]]:
        """Operator-initiated reclaim (``repro queue reclaim``): every
        expired lease goes straight back to ``pending`` (no stagger —
        this is an explicit command, not a racing fleet), except those
        whose claim budget is exhausted, which fail terminally.

        Returns ``(keys released to pending, keys failed)``.
        """
        now = time.time()
        released, exhausted = [], []
        with self._locked():
            self._refresh_locked()
            for entry in self._ordered():
                if entry.status != LEASED or now < entry.deadline:
                    continue
                if entry.claims >= self.max_claims:
                    self._fail_exhausted(entry, now)
                    exhausted.append(entry.key)
                else:
                    self._append_locked(
                        {
                            "event": "abandoned",
                            "key": entry.key,
                            "t": now,
                            "worker": entry.worker,
                            "by": self.worker_id,
                            "reason": "reclaimed",
                        }
                    )
                    released.append(entry.key)
            self._refresh_locked()
        return released, exhausted

    def snapshot(self) -> QueueStatus:
        """Fold up to now and report counts + stale-lease diagnostics."""
        now = time.time()
        with self._locked():
            self._refresh_locked()
            entries = self._ordered()
            corrupt = self.corrupt_events
        status = QueueStatus(path=self._path, corrupt_events=corrupt)
        for entry in entries:
            status.total += 1
            if entry.status == PENDING:
                status.pending += 1
            elif entry.status == LEASED:
                status.leased += 1
                worker = entry.worker or "?"
                status.workers[worker] = status.workers.get(worker, 0) + 1
                if now >= entry.deadline:
                    status.stale.append(
                        StaleLease(
                            key=entry.key,
                            worker=entry.worker,
                            overdue=now - entry.deadline,
                            claims=entry.claims,
                        )
                    )
            elif entry.status == DONE:
                status.done += 1
            else:
                status.failed += 1
        return status


def _parse_event(line: bytes) -> Optional[dict]:
    """Parse one event line, or ``None`` for anything malformed."""
    try:
        event = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(event, dict):
        return None
    if event.get("event") not in _EVENTS:
        return None
    if not isinstance(event.get("key"), str):
        return None
    return event


# ----------------------------------------------------------------------
# The worker side: heartbeat + drain loop (`repro queue work`)
# ----------------------------------------------------------------------


class LeaseHeartbeat(threading.Thread):
    """Daemon thread renewing held leases at ``lease_seconds / 4``.

    The work loop hands it the claimed keys for the duration of each
    batch; renewal failures are swallowed (a missed beat costs at worst
    an early reclaim, which at-least-once semantics absorb).
    """

    def __init__(
        self, queue: WorkQueue, interval: Optional[float] = None
    ) -> None:
        super().__init__(name=f"lease-heartbeat-{queue.worker_id}", daemon=True)
        self._queue = queue
        self.interval = (
            interval
            if interval is not None
            else max(0.05, queue.lease_seconds / 4.0)
        )
        self._held: set[str] = set()
        self._held_lock = threading.Lock()
        self._stopped = threading.Event()

    def hold(self, keys: Iterable[str]) -> None:
        with self._held_lock:
            self._held.update(keys)

    def drop(self, keys: Iterable[str]) -> None:
        with self._held_lock:
            self._held.difference_update(keys)

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            with self._held_lock:
                keys = sorted(self._held)
            if not keys:
                continue
            try:
                self._queue.renew(keys)
            except OSError:  # pragma: no cover - transient fs trouble
                pass  # next beat retries; worst case the lease expires

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=5.0)


@dataclass
class DrainReport:
    """What one :func:`drain` call did."""

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0
    #: Claims taken over from expired (dead) workers.
    reclaimed: int = 0
    #: Claim cycles executed.
    cycles: int = 0


def _load_claimed_spec(claim: ClaimedSpec):
    """Rebuild the spec for a claim; ``(spec, None)`` or ``(None, why)``.

    The rebuilt spec's key must equal the queued key — otherwise marking
    the entry done would never match the store row and the entry would
    be reclaimed forever.
    """
    try:
        spec = spec_from_dict(claim.payload)
    except ReproError as exc:
        return None, f"unloadable spec payload: {exc}"
    key = spec.key()
    if key != claim.key:
        return None, (
            f"spec payload rebuilds to key {key[:12]}…, not the queued "
            "key; refusing to run"
        )
    return spec, None


def drain(
    queue: WorkQueue,
    runner,
    *,
    batch: Optional[int] = None,
    poll_seconds: float = 0.5,
    heartbeat_interval: Optional[float] = None,
) -> DrainReport:
    """Work loop of one ``repro queue work`` process.

    Repeatedly claims up to ``batch`` specs (default: the runner's job
    count), runs them through ``runner.run`` — which keeps all the PR-7
    in-process retry/timeout/fault semantics — and marks each entry
    ``done`` or ``failed`` from what actually landed in the runner's
    store. Returns once the queue is drained (no pending entries, no
    live leases anywhere); while other workers still hold leases it
    polls, ready to reclaim if they die.

    On KeyboardInterrupt (the runner's drain raises it after persisting
    in-flight results) entries whose result made it to the store are
    marked done, the rest are released for other workers, and the
    interrupt is re-raised so the CLI exits 130.
    """
    if batch is None:
        batch = max(1, int(getattr(runner, "jobs", 1) or 1))
    report = DrainReport(worker_id=queue.worker_id)
    heartbeat = LeaseHeartbeat(queue, interval=heartbeat_interval)
    heartbeat.start()
    held: list[ClaimedSpec] = []
    settled: set[str] = set()
    try:
        while True:
            claims = queue.claim(limit=batch)
            if not claims:
                if queue.snapshot().drained:
                    break
                time.sleep(poll_seconds)
                continue
            # Process-level chaos hook: a seeded `die` kills this whole
            # worker *here*, holding fresh unserved leases — the orphan
            # case surviving workers must reclaim.
            faults.inject_process_faults(queue.worker_id, report.cycles)
            report.cycles += 1
            held, settled = claims, set()
            heartbeat.hold([c.key for c in claims])
            report.claimed += len(claims)
            took_over = sum(1 for c in claims if c.reclaimed)
            report.reclaimed += took_over
            runner.stats.reclaimed += took_over
            runnable = []
            for c in claims:
                spec, why = _load_claimed_spec(c)
                if spec is None:
                    queue.mark_failed(c.key, error=why, kind="bad-spec")
                    settled.add(c.key)
                    report.failed += 1
                else:
                    runnable.append(spec)
            if runnable:
                try:
                    runner.run(runnable)
                except SweepFailure:
                    pass  # per-spec outcomes are read from the store
            for c in claims:
                if c.key in settled:
                    continue
                if runner.store.get(c.key) is not None:
                    queue.mark_done(c.key)
                    report.completed += 1
                else:
                    info = runner.store.failure_info(c.key) or {}
                    queue.mark_failed(
                        c.key,
                        error=info.get("error") or "spec produced no result",
                        kind=info.get("kind") or "error",
                    )
                    report.failed += 1
                settled.add(c.key)
            heartbeat.drop([c.key for c in claims])
            held = []
    except KeyboardInterrupt:
        unfinished = []
        for c in held:
            if c.key in settled:
                continue
            if runner.store.get(c.key) is not None:
                queue.mark_done(c.key)
                report.completed += 1
            else:
                unfinished.append(c.key)
        if unfinished:
            queue.release(unfinished)
        raise
    finally:
        heartbeat.stop()
    return report
