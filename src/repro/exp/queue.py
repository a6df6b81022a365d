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
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.errors import ConfigurationError, ReproError
from repro.exp import faults
from repro.exp.runner import _backoff_delay
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
            :func:`resolve_queue_path`); the first :meth:`enqueue`
            creates it.
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
        if max_claims < 1:
            raise ConfigurationError(
                f"max_claims must be at least 1, got {max_claims}"
            )
        self._path = resolve_queue_path(path)
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = float(lease_seconds)
        self.max_claims = int(max_claims)
        self.backoff = backoff
        self._mutex = threading.RLock()
        # Entries are created only by _fold and never removed, so the
        # dict's insertion order is queue (FIFO) order.
        self._entries: dict[str, _Entry] = {}
        self._offset = 0  # byte offset of the first unfolded event
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
            entry = self._entries[key] = _Entry(
                key=key, payload=dict(event.get("spec") or {})
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
        line = _event_line(event)
        plan = faults.active_plan()
        torn = (
            plan is not None
            and event["event"] in _TEARABLE_EVENTS
            and plan.should_tear(
                f"{event['key']}:{event['event']}", kind="torn_queue"
            )
        )
        append_lines(self._path, line, torn)

    def _emit(self, event: str, key: str, now: float, **fields) -> None:
        """Append ``event`` for ``key`` at ``now`` by this worker (lock
        held); ``fields`` add to the record or override its worker."""
        self._append_locked(
            {"event": event, "key": key, "t": now, "worker": self.worker_id}
            | fields
        )

    def _fail_exhausted(self, entry: _Entry, now: float) -> None:
        """Append the terminal ``failed`` event of an expired lease whose
        claim budget is spent (lock held)."""
        self._emit(
            "failed",
            entry.key,
            now,
            kind="lease-expired",
            error=(
                f"lease expired under worker {entry.worker!r} and the "
                f"claim budget ({self.max_claims}) is exhausted"
            ),
        )

    # -- the protocol ----------------------------------------------------

    def enqueue(self, specs: Iterable[ExperimentSpec]) -> int:
        """Append ``enqueued`` events for specs not already queued.

        Returns the number of *new* entries; duplicate keys (within the
        batch or against the existing queue) are skipped, so re-running
        an enqueue after adding grid points only adds the new points.

        New entries are grouped by trace
        (:meth:`~repro.exp.spec.ExperimentSpec.trace_key`): groups in
        order of first appearance, specs in input order within a group.
        FIFO claims then walk one trace at a time, so a drain worker
        builds each trace once rather than once per revisit. All new
        events go out in one locked, fsync'd append; a crash mid-append
        leaves a prefix of whole events plus one torn line, which
        rerunning the same enqueue heals and completes.
        """
        groups: dict[str, list[ExperimentSpec]] = {}
        for spec in specs:
            groups.setdefault(spec.trace_key(), []).append(spec)
        now = time.time()
        # Only enqueue creates a queue, so a command aimed at a mistyped
        # path leaves nothing behind.
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked():
            self._refresh_locked()
            lines: dict[str, bytes] = {}
            for group in groups.values():
                for spec in group:
                    key = spec.key()
                    if key in self._entries or key in lines:
                        continue
                    lines[key] = _event_line(
                        {
                            "event": "enqueued",
                            "key": key,
                            "t": now,
                            "spec": spec.to_dict(),
                        }
                    )
            if lines:
                append_lines(self._path, b"".join(lines.values()))
                self._refresh_locked()
        return len(lines)

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
            for entry in self._entries.values():
                if len(picks) >= limit:
                    break
                if entry.status != PENDING:
                    continue
                if not entry.payload:
                    self._emit(
                        "failed",
                        entry.key,
                        now,
                        kind="bad-spec",
                        error="queue entry has no spec payload",
                    )
                    continue
                picks.append((entry, False))
            for entry in self._entries.values():
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
                self._emit(
                    "abandoned",
                    entry.key,
                    now,
                    worker=entry.worker,
                    by=self.worker_id,
                    reason="lease-expired",
                )
                picks.append((entry, True))
            deadline = now + self.lease_seconds
            for entry, _ in picks:
                self._emit(
                    "claimed",
                    entry.key,
                    now,
                    deadline=deadline,
                    attempt=entry.claims + 1,
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
                self._emit(
                    "renewed", key, now, deadline=now + self.lease_seconds
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
                    self._emit(
                        "abandoned",
                        key,
                        now,
                        by=self.worker_id,
                        reason="released",
                    )
            self._refresh_locked()

    def mark_done(self, key: str) -> bool:
        """Record terminal success. Returns ``False`` (a no-op) when the
        entry is already done — the late half of a double finish."""
        return self._settle(key, DONE)

    def mark_failed(self, key: str, error: str, kind: str = "error") -> bool:
        """Record terminal failure (unless the entry already succeeded,
        in which case the result wins and this is a no-op)."""
        return self._settle(key, FAILED, kind=kind, error=error)

    def _settle(self, key: str, status: str, **fields) -> bool:
        """Append the terminal event named after ``status`` unless the
        entry is already done; whether the entry now has ``status``."""
        now = time.time()
        with self._locked():
            self._refresh_locked()
            entry = self._entries.get(key)
            if entry is not None and entry.status == DONE:
                return False
            self._emit(status, key, now, **fields)
            self._refresh_locked()
            return self._entries[key].status == status

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
            for entry in self._entries.values():
                if entry.status != LEASED or now < entry.deadline:
                    continue
                if entry.claims >= self.max_claims:
                    self._fail_exhausted(entry, now)
                    exhausted.append(entry.key)
                else:
                    self._emit(
                        "abandoned",
                        entry.key,
                        now,
                        worker=entry.worker,
                        by=self.worker_id,
                        reason="reclaimed",
                    )
                    released.append(entry.key)
            self._refresh_locked()
        return released, exhausted

    def snapshot(self) -> QueueStatus:
        """Fold up to now and report counts + stale-lease diagnostics."""
        now = time.time()
        with self._locked():
            self._refresh_locked()
            entries = list(self._entries.values())
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


def _event_line(event: dict) -> bytes:
    """One event as its newline-terminated JSON line."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


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
    """Daemon thread renewing held leases every ``lease_seconds / 4``.

    It is also the drain's record of its unsettled claims: a key is
    held from the moment its spec is handed to the runner until its
    outcome is settled. Renewal failures are swallowed (a missed beat
    costs at worst an early reclaim, which at-least-once semantics
    absorb).
    """

    def __init__(self, queue: WorkQueue) -> None:
        super().__init__(name=f"lease-heartbeat-{queue.worker_id}", daemon=True)
        self._queue = queue
        self.interval = max(0.05, queue.lease_seconds / 4.0)
        self._held: set[str] = set()
        self._held_lock = threading.Lock()
        self._stopped = threading.Event()

    @property
    def held(self) -> list[str]:
        """The keys currently held, sorted."""
        with self._held_lock:
            return sorted(self._held)

    def hold(self, key: str) -> None:
        with self._held_lock:
            self._held.add(key)

    def drop(self, key: str) -> None:
        with self._held_lock:
            self._held.discard(key)

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            keys = self.held
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

    @property
    def cycles(self) -> int:
        """Claim cycles run; each claims one spec, so equal to
        ``claimed``."""
        return self.claimed


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
) -> DrainReport:
    """Work loop of one ``repro queue work`` process.

    One pool of ``runner.jobs`` workers serves the whole drain
    (:meth:`Runner.stream`). Each time a slot frees, the drain claims
    one spec (pending first, then expired leases of dead workers), so
    the heartbeat renews exactly the specs running or awaiting a retry.
    Each claim is settled from its own outcome, which the runner has
    already persisted: ``done``, or ``failed`` once ``--retries`` are
    spent. A claim already in the store is done without simulating.
    Returns once the queue is drained (no pending entries, no live
    leases anywhere); while other workers hold leases it polls every
    ``poll_seconds``, ready to reclaim if they die. ``batch`` is
    ignored, accepted for callers of the batch-claiming drain.

    Raises:
        ConfigurationError: for ``poll_seconds <= 0``, before any claim
            (zero spins on the queue lock, a negative fails mid-drain).

    On KeyboardInterrupt (raised after the pool's graceful drain, whose
    outcomes were settled as they arrived) the leases still held are
    released for other workers and the interrupt is re-raised, so the
    CLI exits 130.
    """
    if poll_seconds <= 0:
        raise ConfigurationError(
            f"poll_seconds must be positive, got {poll_seconds}"
        )
    report = DrainReport(worker_id=queue.worker_id)
    heartbeat = LeaseHeartbeat(queue)

    def claims() -> Iterator[Optional[ExperimentSpec]]:
        """One claimed spec per pull; ``None`` while nothing is
        claimable, after which the queue is polled every
        ``poll_seconds``. With none of this worker's specs in flight
        the pool asks again at once, so the wait happens here."""
        next_poll = 0.0
        while True:
            if heartbeat.held and time.monotonic() < next_poll:
                yield None
                continue
            got = queue.claim(limit=1)
            if not got:
                if not heartbeat.held:
                    if queue.snapshot().drained:
                        return
                    time.sleep(poll_seconds)
                next_poll = time.monotonic() + poll_seconds
                yield None
                continue
            (claim,) = got
            # Process-level chaos hook: a seeded `die` kills this whole
            # worker *here*, holding a fresh unserved lease — the orphan
            # case surviving workers must reclaim.
            faults.inject_process_faults(queue.worker_id, report.claimed)
            report.claimed += 1
            if claim.reclaimed:
                report.reclaimed += 1
                runner.stats.reclaimed += 1
            spec, why = _load_claimed_spec(claim)
            if spec is None:
                queue.mark_failed(claim.key, error=why, kind="bad-spec")
                report.failed += 1
            elif claim.key in runner.store:
                runner.stats.cached += 1
                queue.mark_done(claim.key)
                report.completed += 1
            else:
                heartbeat.hold(claim.key)
                yield spec

    heartbeat.start()
    try:
        for outcome in runner.stream(claims()):
            heartbeat.drop(outcome.key)
            if outcome.ok:
                queue.mark_done(outcome.key)
                report.completed += 1
            else:
                queue.mark_failed(
                    outcome.key, error=outcome.error, kind=outcome.kind
                )
                report.failed += 1
    except KeyboardInterrupt:
        queue.release(heartbeat.held)
        raise
    finally:
        heartbeat.stop()
    return report
