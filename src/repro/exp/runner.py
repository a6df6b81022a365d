"""Parallel experiment execution.

The :class:`Runner` takes a list of :class:`ExperimentSpec` and returns
one :class:`SimulationResult` per spec, in order. Specs whose key is
already in the :class:`ResultStore` are served from it; the rest are
deduplicated and fanned out over worker processes (or run inline for
``jobs=1`` / single-spec calls, where a pool would only add overhead).

Execution is *fault-tolerant* (see :mod:`repro.exp.pool`): a worker
death or an exception inside the engine costs one bounded-backoff retry
of that spec, a per-spec wall-clock ``timeout`` kills hung simulations,
and a poison spec that exhausts its retries fails only its own row —
recorded as a structured failure in the store and in
:class:`RunnerStats` — while the rest of the sweep completes, after
which :class:`~repro.errors.SweepFailure` reports what was lost.

``SIGINT``/``SIGTERM`` drain gracefully at every job count: inline and
pooled runs both go through :meth:`Runner._execute`, which installs the
one handler.

A process keeps its traces in one table, ``_TRACES`` (trace key ->
trace, least recently used first), and :func:`_trace_for` is the one
place that builds or releases one. A process replays one spec at a
time, so when it asks for a trace every trace in the table is *idle*:
before it builds a trace, :func:`_trace_for` releases the least
recently used ones until they hold at most ``_IDLE_TRACE_RECORDS``
records. ``run()`` replays its pending specs trace by trace (traces the
table holds first), so a large trace lives only while its specs replay,
and small ones carry from one run to the next. Before any spec runs,
``run()`` builds ahead, in run order, until the table passes the budget
(every smoke trace, or one ci or paper trace). On Linux the pool forks,
so ``run()`` also builds the replay records
(:meth:`~repro.workloads.trace.Trace.replay_records`) of the traces it
built ahead and compiles every pending spec's replay kernel, and
workers inherit the table, the records and the kernels zero-copy: a
worker writes only the reference counts of the trace's shared record
tuples, so copy-on-write copies those pages, not one int per record.
Spawned workers get the table as a process argument. A worker builds
any other trace itself through :func:`_trace_for`, as does each process
of a queue drain (:meth:`Runner.stream`), which learns its specs one at
a time.
Simulation itself is deterministic given the trace and config, so
results are identical whatever the job count — the test suite pins that
with a byte-identical-JSON guard.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError, SweepFailure
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ResultStore, result_from_dict, result_to_dict
from repro.params import ScalePreset
from repro.sim.results import SimulationResult
from repro.workloads import standard_trace

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.workloads.trace import Trace

#: Fork the pool on Linux: workers inherit traces, replay records and
#: compiled kernels zero-copy. Elsewhere (macOS/Windows) fork is unsafe
#: or absent, so the platform's default start method is kept.
_FORK = sys.platform == "linux"

#: Records the idle traces of a process may hold: :func:`_trace_for`
#: releases the least recently used ones down to this before it builds
#: a trace. About 5 MB at ~25 bytes per record with replay records. All
#: six smoke traces of the registry (about 58k records) fit, so they
#: carry between figures and a drain worker builds each once. A ci
#: trace (140k-604k records) or a paper-scale one (about 87 MB for
#: tpcc-1) is held while its specs replay, beside at most a small idle
#: one.
_IDLE_TRACE_RECORDS = 200_000

#: The traces this process holds, by trace key, least recently used
#: first. Forked workers inherit the table.
_TRACES: dict[str, Trace] = {}


def _build_trace(spec: ExperimentSpec) -> Trace:
    return standard_trace(
        spec.workload,
        ScalePreset(spec.scale),
        n_threads=spec.n_threads,
        seed=spec.seed,
    )


def _held_records() -> int:
    return sum(trace.total_records for trace in _TRACES.values())


def _trace_for(spec: ExperimentSpec) -> Trace:
    """The spec's trace, built if the table lacks it. The one place a
    trace is built or released: a process replays one spec at a time,
    so every trace in the table is idle here, and the least recently
    used go before a build until the rest hold at most
    ``_IDLE_TRACE_RECORDS`` records."""
    key = spec.trace_key()
    trace = _TRACES.pop(key, None)
    if trace is None:
        held = _held_records()
        while held > _IDLE_TRACE_RECORDS:
            held -= _TRACES.pop(next(iter(_TRACES))).total_records
        trace = _build_trace(spec)
    _TRACES[key] = trace
    return trace


def _build_ahead(heads: Iterable[ExperimentSpec]) -> None:
    """Build the traces of ``heads`` (one spec per trace, in run order)
    until the table passes ``_IDLE_TRACE_RECORDS``, and under fork their
    replay records, so forked workers inherit them."""
    from repro.sim.tlb import PAGE_SHIFT

    for spec in heads:
        trace = _trace_for(spec)
        if _FORK:
            trace.replay_records(PAGE_SHIFT)
        if _held_records() > _IDLE_TRACE_RECORDS:
            return


def _run_spec(spec: ExperimentSpec, attempt: int = 0) -> tuple[dict, float]:
    """Worker entry point: simulate one spec, return
    ``(result dict, seconds)``.

    Results cross the process boundary as plain dicts so fresh and
    store-loaded rows take the identical deserialisation path; the
    per-spec wall time feeds :class:`RunnerStats` timing. ``attempt``
    only feeds the fault-injection harness — chaos runs key their
    deterministic crash/hang schedule on (spec key, attempt) so a retry
    can be scheduled to succeed where the first attempt was killed.
    """
    from repro.exp.faults import inject_worker_faults
    from repro.sim.engine import simulate

    inject_worker_faults(spec.key(), attempt)
    t0 = time.perf_counter()
    result = simulate(_trace_for(spec), config=spec.config)
    return result_to_dict(result), time.perf_counter() - t0


@dataclass
class SpecOutcome:
    """Terminal fate of one spec: a result payload or a failure."""

    key: str
    spec: ExperimentSpec
    ok: bool
    #: ``result_to_dict`` payload (successes only).
    payload: Optional[dict] = None
    #: Simulation seconds of the successful attempt.
    seconds: float = 0.0
    #: Total attempts executed (1 = no retries needed).
    attempts: int = 1
    #: Failure classification: ``error`` (exception inside the engine),
    #: ``worker-death`` (process died mid-task), ``timeout``.
    kind: Optional[str] = None
    error: Optional[str] = None

    def failure_record(self) -> dict:
        """The structured row :meth:`ResultStore.put_failure` persists."""
        return {
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "label": self.spec.display_label(),
            "variant": self.spec.variant,
            "workload": self.spec.workload,
        }


def _backoff_delay(base: float, key: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter in [1.0, 1.5)x.

    The jitter decorrelates retry storms across specs (every task that
    died with one worker would otherwise retry in lockstep) while
    staying a pure function of (key, attempt) so scheduling is
    reproducible.
    """
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    jitter = 1.0 + (digest[0] / 256.0) * 0.5
    return base * (2.0 ** (attempt - 1)) * jitter


@dataclass
class RunnerStats:
    """How a ``run()`` call was served (``Runner.stats`` also sums every
    ``stream()``).

    ``cached`` counts input specs answered without simulating (store hits
    plus intra-call duplicates); ``simulated`` counts actual engine runs.
    ``failed`` counts specs with no result after all retries (of which
    ``timed_out`` were killed by the per-spec timeout); ``retried``
    counts extra attempts spent recovering from transient failures.
    ``wall_seconds`` is the end-to-end duration of the call,
    ``sim_seconds`` the summed per-spec simulation time (under parallel
    workers ``sim_seconds`` exceeds ``wall_seconds``; their ratio is the
    effective sweep speed-up), and ``spec_seconds`` maps each simulated
    spec's key to its individual simulation time.
    """

    simulated: int = 0
    cached: int = 0
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    spec_seconds: dict[str, float] = field(default_factory=dict)

    def add(self, other: "RunnerStats") -> None:
        self.simulated += other.simulated
        self.cached += other.cached
        self.failed += other.failed
        self.retried += other.retried
        self.timed_out += other.timed_out
        self.wall_seconds += other.wall_seconds
        self.sim_seconds += other.sim_seconds
        self.spec_seconds.update(other.spec_seconds)


class Runner:
    """Executes spec families against a result store.

    Args:
        store: result cache; defaults to a fresh in-memory store.
        jobs: worker processes for fan-out (1 = run inline).
        retries: bounded retries per spec for transient failures
            (worker death, an exception inside the engine); retry
            delays grow exponentially from ``backoff`` seconds with
            deterministic jitter.
        timeout: per-spec wall-clock seconds before a hung simulation's
            worker is killed and the spec marked ``timed_out``
            (``None`` = no limit). Enforcement needs a killable worker
            process, so a timeout routes even ``jobs=1`` runs through
            the pool.
        backoff: base seconds of the exponential retry backoff.

    Raises:
        ConfigurationError: for ``jobs < 1``, ``retries < 0`` or a
            ``timeout`` that is not positive. A zero timeout would fail
            every spec, so it is refused before anything runs.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        retries: int = 2,
        timeout: Optional[float] = None,
        backoff: float = 0.25,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
        if retries < 0:
            raise ConfigurationError(f"retries must be at least 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        self.store = store if store is not None else ResultStore()
        self.jobs = int(jobs)
        self.retries = int(retries)
        self.timeout = timeout
        self.backoff = backoff
        #: Cumulative counts across all ``run()`` and ``stream()`` calls.
        self.stats = RunnerStats()
        #: Counts for the most recent ``run()`` call.
        self.last_stats = RunnerStats()

    def run(self, specs: Sequence[ExperimentSpec]) -> list[SimulationResult]:
        """Run every spec, returning results aligned with the input.

        Duplicate keys within one call are simulated once.

        Raises:
            SweepFailure: after the whole sweep has been driven to
                completion, if any spec still has no result — every
                completed row is already persisted, so a rerun retries
                only the failed specs.
            KeyboardInterrupt: after a graceful SIGINT/SIGTERM drain
                (see :meth:`_execute`); every result completed before
                or during the drain is persisted.
        """
        t_start = time.perf_counter()
        specs = list(specs)
        keys = [spec.key() for spec in specs]
        served: dict[str, SimulationResult] = {}
        pending: dict[str, ExperimentSpec] = {}
        stats = RunnerStats()
        for spec, key in zip(specs, keys):
            if key in served or key in pending:
                stats.cached += 1
                continue
            hit = self.store.get(key)
            if hit is not None:
                served[key] = hit
                stats.cached += 1
            else:
                pending[key] = spec

        # Replay trace by trace: the traces the table holds first, then
        # the rest in order of first appearance, each trace's specs in
        # input order. So _trace_for holds a trace past the budget only
        # while its specs replay.
        by_trace: dict[str, list[ExperimentSpec]] = {}
        for spec in pending.values():
            by_trace.setdefault(spec.trace_key(), []).append(spec)
        order = sorted(by_trace, key=lambda key: key not in _TRACES)
        runs = [spec for key in order for spec in by_trace[key]]
        if runs:
            _build_ahead(by_trace[key][0] for key in order)
        if _FORK and runs:
            # Forked workers inherit every pending spec's replay kernel,
            # and an inline run needs the same.
            from repro.sim.specialize import kernel_for, kernel_spec

            for spec in runs:
                kernel_for(kernel_spec(spec.config))

        # Results persist as they arrive (not after the whole batch), so
        # an interrupted campaign keeps every simulation it finished.
        failures: list[SpecOutcome] = []
        try:
            if runs:
                jobs = min(self.jobs, len(runs))
                for outcome in self._execute(runs, jobs):
                    result = self._record(outcome, stats)
                    if result is None:
                        failures.append(outcome)
                    else:
                        served[outcome.key] = result
        finally:
            stats.wall_seconds = time.perf_counter() - t_start
            self.last_stats = stats
            self.stats.add(stats)
        if failures:
            names = ", ".join(
                f"{o.spec.display_label()} ({o.kind})" for o in failures[:5]
            )
            more = "" if len(failures) <= 5 else f", +{len(failures) - 5} more"
            raise SweepFailure(
                f"{len(failures)} of {len(pending)} spec(s) failed after "
                f"retries: {names}{more}",
                failures=failures,
                results=[served.get(key) for key in keys],
            )
        return [served[key] for key in keys]

    def stream(
        self, specs: Iterable[Optional[ExperimentSpec]]
    ) -> Iterator[SpecOutcome]:
        """Run specs pulled from ``specs`` whenever a worker is idle, on
        one pool for the whole iteration (inline at ``jobs=1``), and
        yield each :class:`SpecOutcome` once it is persisted and counted
        into ``stats`` as :meth:`run` does. ``None`` means "nothing yet"
        (see :meth:`FaultTolerantPool.run`). No spec is served from the
        store and no failure raises: the caller settles every outcome.
        Raises ``KeyboardInterrupt`` after a graceful SIGINT/SIGTERM
        drain (see :meth:`_execute`), every pulled spec's outcome
        yielded.
        """
        t_start = time.perf_counter()
        try:
            for outcome in self._execute(specs, self.jobs):
                self._record(outcome, self.stats)
                yield outcome
        finally:
            self.stats.wall_seconds += time.perf_counter() - t_start

    def _record(
        self, outcome: SpecOutcome, stats: RunnerStats
    ) -> Optional[SimulationResult]:
        """Persist and count one outcome; its result (``None`` if failed)."""
        stats.retried += outcome.attempts - 1
        if not outcome.ok:
            stats.failed += 1
            if outcome.kind == "timeout":
                stats.timed_out += 1
            self.store.put_failure(
                outcome.key, outcome.failure_record(), spec=outcome.spec
            )
            return None
        result = result_from_dict(outcome.payload)
        self.store.put(outcome.key, result, spec=outcome.spec)
        stats.simulated += 1
        stats.sim_seconds += outcome.seconds
        stats.spec_seconds[outcome.key] = outcome.seconds
        return result

    def _execute(
        self, specs: Iterable[Optional[ExperimentSpec]], jobs: int
    ) -> Iterator[SpecOutcome]:
        """Yield a terminal :class:`SpecOutcome` per spec pulled from
        ``specs`` as simulations complete, in arbitrary order — the
        caller realigns by key and persists incrementally.

        This is where a run stops, inline or pooled. The first SIGINT
        or SIGTERM ends the pulls from ``specs``; every spec already
        pulled still runs to its outcome, retries included, and is
        yielded, so the caller persists it (and a queue drain settles
        it). Then ``KeyboardInterrupt`` is raised. A second signal
        raises ``KeyboardInterrupt`` at once: the pool's workers are
        killed and nothing further is yielded. The handler is installed
        on the main thread only, and removed on exit.
        """
        import signal
        import threading

        from repro.exp.faults import active_plan

        draining = False

        def on_signal(signum, frame):
            nonlocal draining
            if draining:
                raise KeyboardInterrupt
            draining = True

        def pulled() -> Iterator[Optional[ExperimentSpec]]:
            source = iter(specs)
            while not draining:
                try:
                    spec = next(source)
                except StopIteration:
                    return
                yield spec

        previous = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, on_signal)
        try:
            # Inline fast path: no pool process when nothing needs one.
            # A timeout needs a killable worker, and an active fault
            # plan needs a worker whose death is survivable, so both
            # route through the pool even at jobs=1.
            if jobs == 1 and self.timeout is None and active_plan() is None:
                yield from self._execute_inline(pulled())
            else:
                # Import the simulation stack, trace building included,
                # before the pool forks, so every worker inherits it
                # instead of importing it again.
                import multiprocessing

                import repro.sim.engine  # noqa: F401
                import repro.workloads.generator  # noqa: F401
                from repro.exp.pool import FaultTolerantPool
                from repro.workloads import import_makers

                import_makers()
                pool = FaultTolerantPool(
                    multiprocessing.get_context("fork" if _FORK else None),
                    jobs,
                    retries=self.retries,
                    timeout=self.timeout,
                    backoff=self.backoff,
                )
                yield from pool.run(pulled())  # which closes the pool
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        if draining:
            raise KeyboardInterrupt

    def _execute_inline(
        self, specs: Iterable[Optional[ExperimentSpec]]
    ) -> Iterator[SpecOutcome]:
        """Single-process execution with the same retry semantics.

        Worker death cannot happen inline (there is no worker), so the
        retry loop only sees engine exceptions; timeouts are pool-only.
        """
        for spec in specs:
            if spec is None:
                continue
            key = spec.key()
            for attempt in range(self.retries + 1):
                if attempt:
                    time.sleep(_backoff_delay(self.backoff, key, attempt))
                try:
                    payload, seconds = _run_spec(spec, attempt)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    continue
                yield SpecOutcome(
                    key=key,
                    spec=spec,
                    ok=True,
                    payload=payload,
                    seconds=seconds,
                    attempts=attempt + 1,
                )
                break
            else:
                yield SpecOutcome(
                    key=key,
                    spec=spec,
                    ok=False,
                    attempts=self.retries + 1,
                    kind="error",
                    error=error,
                )
