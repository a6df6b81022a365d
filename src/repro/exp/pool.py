"""Fault-tolerant worker pool for experiment execution.

``multiprocessing.Pool`` assumes workers never die: a SIGKILL'd worker
hangs ``imap_unordered`` forever, and a hung simulation cannot be killed
at all because the pool does not know which worker holds which task.
This pool keeps that mapping explicit — one dedicated process per
worker, one duplex pipe each, tasks dispatched one at a time — which is
what makes the recovery matrix implementable:

* **worker death** (crash, OOM kill) → the pipe closes, the parent sees
  EOF, respawns a fresh worker, and retries the task with exponential
  backoff + deterministic jitter, up to ``retries`` times;
* **hang** → the parent tracks a per-task deadline; on expiry it kills
  exactly the offending worker, respawns it, and reports the task as
  ``timed_out`` (terminal — a deterministic hang would only hang
  again);
* **poison spec** (exception inside the engine) → the worker reports
  the error over the pipe; after retries the task is reported failed
  while every other spec proceeds.

The pool installs no signal handler: it runs under the one
:meth:`Runner._execute <repro.exp.runner.Runner._execute>` installs,
whose first SIGINT/SIGTERM ends the spec source (the pool then finishes
every task it already pulled) and whose second raises
``KeyboardInterrupt`` out of :meth:`FaultTolerantPool.run`, which kills
the busy workers. Workers ignore SIGINT so a terminal Ctrl-C (which
signals the whole process group) still drains instead of killing
workers mid-task.

Outcomes are yielded as they complete, in arbitrary order, so the
caller can persist incrementally — an interrupted campaign keeps every
simulation it finished.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Iterable, Iterator, Optional

from repro.exp import runner as runner_mod
from repro.exp.runner import SpecOutcome, _backoff_delay
from repro.exp.spec import ExperimentSpec

#: Upper bound on one scheduler wait, so deadline checks are honoured
#: promptly even while every worker is busy.
_TICK_SECONDS = 0.2

#: Grace given to a SIGTERM'd worker before escalating to SIGKILL.
_TERM_GRACE_SECONDS = 0.5


@dataclass
class _Task:
    key: str
    spec: ExperimentSpec
    attempts: int = 0
    not_before: float = 0.0


def _worker_main(conn, traces, parent_pid) -> None:
    """Worker loop: receive ``(spec, attempt)``, simulate, reply.

    ``traces`` is the parent's trace table (``runner._TRACES``): under
    fork the very table the worker inherited, under spawn its copy.
    SIGINT is ignored (the parent coordinates draining); SIGTERM keeps
    its default fatal disposition so the parent's timeout kill works.
    Exceptions are reported over the pipe, never raised — a poison spec
    must cost one task, not one worker.

    The idle wait is a bounded ``poll`` plus an orphan check rather
    than a bare ``recv``: sibling workers forked later inherit a copy
    of the parent's end of this pipe, so if the parent is SIGKILL'd the
    pipe never reaches EOF — two idle siblings would keep each other
    (and every inherited fd, including a captured stdout) alive
    forever. Re-parenting to init is the unambiguous death signal.
    ``parent_pid`` is captured on the parent side *before* the fork —
    a child that asked ``os.getppid()`` itself could record the
    reaper's pid if the parent died in the fork window, disabling the
    check.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    runner_mod._TRACES = traces
    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:  # orphaned by a kill
                    conn.close()
                    return
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if task is None:
            break
        spec, attempt = task
        try:
            reply = ("done", *runner_mod._run_spec(spec, attempt))
        except Exception as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}", 0.0)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break  # parent gave up on us (timeout kill / shutdown)
    conn.close()


class _Worker:
    """One dedicated worker process plus its command pipe."""

    def __init__(self, ctx, wid: int) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, runner_mod._TRACES, os.getpid()),
            name=f"repro-exp-worker-{wid}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None

    def kill(self) -> None:
        """Terminate (then kill) the process and release the pipe."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_TERM_GRACE_SECONDS)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(_TERM_GRACE_SECONDS)
        self.conn.close()

    def join_or_kill(self) -> None:
        self.process.join(_TERM_GRACE_SECONDS)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(_TERM_GRACE_SECONDS)


class FaultTolerantPool:
    """Run specs across dedicated worker processes, surviving faults.

    Args:
        ctx: multiprocessing context (fork on Linux — workers inherit
            the parent's trace table zero-copy).
        n_workers: dedicated worker processes.
        retries: re-dispatches allowed per task after a transient
            failure (worker death or in-task exception).
        timeout: per-spec wall-clock seconds before the worker is
            killed and the task reported ``timed_out`` (None = never).
        backoff: base seconds for the exponential retry backoff.
    """

    def __init__(
        self,
        ctx,
        n_workers: int,
        *,
        retries: int = 2,
        timeout: Optional[float] = None,
        backoff: float = 0.25,
    ) -> None:
        self._ctx = ctx
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.backoff = backoff
        self._waiting: list[_Task] = []  # retries, due at not_before
        self._source: Optional[Iterator] = None  # None once exhausted
        self._next_wid = 0
        self._workers: list[_Worker] = [
            self._spawn() for _ in range(max(1, n_workers))
        ]
        self._idle: list[_Worker] = list(self._workers)

    def _spawn(self) -> _Worker:
        self._next_wid += 1
        return _Worker(self._ctx, self._next_wid)

    # -- the scheduler loop ---------------------------------------------

    def run(
        self, specs: Iterable[Optional[ExperimentSpec]]
    ) -> Iterator[SpecOutcome]:
        """Yield a terminal :class:`SpecOutcome` per spec as they finish.

        ``specs`` is pulled lazily, one spec whenever a worker is idle
        and no retry is due. ``None`` means "nothing yet": the pool asks
        again next round, at once if no worker is busy, so a source with
        nothing in flight should wait before answering ``None``. Once
        ``specs`` ends, every task already pulled still runs to its
        outcome, retries included. However the run ends, the pool is
        closed: an exception out of it kills the busy workers.
        """
        self._source = iter(specs)
        try:
            while self._source is not None or self._waiting or self._busy():
                now = time.monotonic()
                while self._idle:
                    task = self._next_task(now)
                    if task is None:
                        break
                    self._dispatch(task, now)
                yield from self._collect(self._wait_budget(now))
                yield from self._expire_deadlines()
        finally:
            self.close()

    def _next_task(self, now: float) -> Optional[_Task]:
        """A due retry, else the source's next spec, else ``None``."""
        self._waiting.sort(key=lambda t: t.not_before)
        if self._waiting and self._waiting[0].not_before <= now:
            return self._waiting.pop(0)
        if self._source is None:
            return None
        try:
            spec = next(self._source)
        except StopIteration:
            self._source = None
            return None
        if spec is None:
            return None
        return _Task(spec.key(), spec)

    def _busy(self) -> list[_Worker]:
        return [w for w in self._workers if w.task is not None]

    def _wait_budget(self, now: float) -> float:
        """How long the next pipe wait may block."""
        budget = _TICK_SECONDS
        for worker in self._busy():
            if worker.deadline is not None:
                budget = min(budget, worker.deadline - now)
        for task in self._waiting:  # due ones wait on a free worker
            if task.not_before > now:
                budget = min(budget, task.not_before - now)
        return max(0.0, budget)

    def _dispatch(self, task: _Task, now: float) -> None:
        worker = self._idle.pop()
        try:
            worker.conn.send((task.spec, task.attempts))
        except (BrokenPipeError, OSError):
            # The idle worker died behind our back (e.g. OOM killer):
            # replace it and put the task back, due at once. Does not
            # count as one of the task's attempts — the spec never
            # started running.
            self._replace(worker)
            task.not_before = now
            self._waiting.append(task)
            return
        worker.task = task
        worker.deadline = (
            now + self.timeout if self.timeout is not None else None
        )

    def _collect(self, budget: float) -> Iterator[SpecOutcome]:
        """Wait up to ``budget`` for worker messages; yield outcomes."""
        busy = self._busy()
        if not busy:
            if budget > 0 and self._waiting:
                time.sleep(min(budget, _TICK_SECONDS))
            return
        conn_to_worker = {w.conn: w for w in busy}
        try:
            ready = mp_connection.wait(list(conn_to_worker), timeout=budget)
        except OSError:  # pragma: no cover - race with a dying pipe
            ready = []
        for conn in ready:
            worker = conn_to_worker[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                yield from self._on_worker_death(worker)
                continue
            yield from self._on_message(worker, message)

    def _on_message(self, worker: _Worker, message) -> Iterator[SpecOutcome]:
        status, payload, seconds = message
        task = worker.task
        worker.task, worker.deadline = None, None
        self._idle.append(worker)
        if task is None:  # pragma: no cover - stale reply after respawn
            return
        if status == "done":
            yield SpecOutcome(
                key=task.key,
                spec=task.spec,
                ok=True,
                payload=payload,
                seconds=seconds,
                attempts=task.attempts + 1,
            )
        else:
            yield from self._retry_or_fail(task, "error", payload)

    def _on_worker_death(self, worker: _Worker) -> Iterator[SpecOutcome]:
        """The pipe closed mid-task: respawn and retry the task."""
        task = worker.task
        worker.task = None
        # Reap the corpse before reading its exit status — at pipe-EOF
        # time the process may not have been waited on yet.
        worker.process.join(_TERM_GRACE_SECONDS)
        exitcode = worker.process.exitcode
        self._replace(worker)
        if task is None:  # pragma: no cover - death while idle
            return
        yield from self._retry_or_fail(
            task,
            "worker-death",
            f"worker process died mid-task (exit code {exitcode})",
        )

    def _retry_or_fail(
        self, task: _Task, kind: str, error: str
    ) -> Iterator[SpecOutcome]:
        task.attempts += 1
        if task.attempts > self.retries:
            yield SpecOutcome(
                key=task.key,
                spec=task.spec,
                ok=False,
                attempts=task.attempts,
                kind=kind,
                error=error,
            )
            return
        task.not_before = time.monotonic() + _backoff_delay(
            self.backoff, task.key, task.attempts
        )
        self._waiting.append(task)

    def _expire_deadlines(self) -> Iterator[SpecOutcome]:
        """Kill workers whose task blew its wall-clock budget.

        Timeouts are terminal, not retried: hangs are overwhelmingly
        deterministic (a poisoned spec hangs again), and retrying one
        would stall the sweep for another full timeout per retry.
        """
        now = time.monotonic()
        for worker in self._busy():
            if worker.deadline is None or now < worker.deadline:
                continue
            task = worker.task
            worker.task = None
            self._replace(worker, kill=True)
            yield SpecOutcome(
                key=task.key,
                spec=task.spec,
                ok=False,
                attempts=task.attempts + 1,
                kind="timeout",
                error=(
                    f"spec exceeded the {self.timeout:g}s wall-clock "
                    "timeout; worker killed"
                ),
            )

    def _replace(self, worker: _Worker, kill: bool = False) -> None:
        if kill:
            worker.kill()
        else:
            worker.conn.close()
            worker.join_or_kill()
        self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        fresh = self._spawn()
        self._workers.append(fresh)
        self._idle.append(fresh)

    def close(self) -> None:
        """Shut every worker down; in-flight work is terminated."""
        for worker in self._workers:
            if worker.task is not None:
                worker.kill()
                continue
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.conn.close()
            worker.join_or_kill()
        self._workers.clear()
        self._idle.clear()
