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
``SIGINT``/``SIGTERM`` drain gracefully: in-flight simulations finish
and persist before the run stops.

``run()`` builds every distinct trace once: it regenerates each from
``(workload, scale, n_threads, seed)`` via the deterministic generators
(once per call in the parent, reusing the previous call's traces where
they overlap) and ships them to the workers at pool start. On Linux the
pool forks, so ``run()`` first builds the replay records
(:meth:`~repro.workloads.trace.Trace.replay_records`) of every trace its
pending specs replay and compiles their replay kernels, and workers
inherit both zero-copy: a worker writes only the reference counts of the
trace's shared record tuples, so copy-on-write copies those pages, not
one int per record.
:meth:`Runner.stream` (the queue drain) learns its specs one at a time,
so its workers build traces themselves, keeping the last few in a
bounded cache.
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

#: Most traces one process keeps that it was not shipped.
#: A drain's specs arrive one at a time, in queue order, and
#: ``WorkQueue.enqueue`` groups that order by trace, so a drain worker
#: builds each trace about once however many traces the queue holds
#: (the smoke queue-drain benchmark: 12 builds of 6 traces by two
#: workers). A paper-scale tpcc-1 trace with its replay records takes
#: about 87 MB and 1.0 s to rebuild (2-core Xeon VM), so each slot of
#: this bound costs about 87 MB per worker at paper scale.
_TRACE_CACHE_SIZE = 2

# Per-process trace state, by trace key. ``_PARENT_TRACES`` holds the
# traces the parent built and shipped (a ``run()``'s traces);
# ``_TRACE_CACHE`` holds the most recently used traces a process built
# itself, oldest first.
_PARENT_TRACES: dict[str, Trace] = {}
_TRACE_CACHE: dict[str, Trace] = {}


def _build_trace(spec: ExperimentSpec) -> Trace:
    return standard_trace(
        spec.workload,
        ScalePreset(spec.scale),
        n_threads=spec.n_threads,
        seed=spec.seed,
    )


def _trace_for(spec: ExperimentSpec) -> Trace:
    key = spec.trace_key()
    trace = _PARENT_TRACES.get(key)
    if trace is not None:
        return trace
    # A spec whose trace was not shipped (a queue drain):
    # reuse a recent build, else evict the oldest *before* building, so
    # the process never holds more than _TRACE_CACHE_SIZE of them.
    trace = _TRACE_CACHE.pop(key, None)
    if trace is None:
        while len(_TRACE_CACHE) >= _TRACE_CACHE_SIZE:
            del _TRACE_CACHE[next(iter(_TRACE_CACHE))]
        trace = _build_trace(spec)
    _TRACE_CACHE[key] = trace
    return trace


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
    ``reclaimed`` counts work-queue leases this runner's process took
    over from expired (dead) workers — the queue drain loop increments
    it, a plain ``run()`` never does. ``wall_seconds`` is the
    end-to-end duration of the call,
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
    reclaimed: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    spec_seconds: dict[str, float] = field(default_factory=dict)

    def add(self, other: "RunnerStats") -> None:
        self.simulated += other.simulated
        self.cached += other.cached
        self.failed += other.failed
        self.retried += other.retried
        self.timed_out += other.timed_out
        self.reclaimed += other.reclaimed
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
        #: Traces built by the most recent ``run()`` call (trace key ->
        #: Trace), shipped to its workers and offered to the next call
        #: for reuse.
        self._traces: dict[str, Trace] = {}

    def run(self, specs: Sequence[ExperimentSpec]) -> list[SimulationResult]:
        """Run every spec, returning results aligned with the input.

        Duplicate keys within one call are simulated once.

        Raises:
            SweepFailure: after the whole sweep has been driven to
                completion, if any spec still has no result — every
                completed row is already persisted, so a rerun retries
                only the failed specs.
            KeyboardInterrupt: after a graceful SIGINT/SIGTERM drain;
                results completed before the drain are persisted.
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

        # Resolve each distinct trace once and ship it to the workers
        # (inherited for free under fork, pickled once per worker under
        # spawn). Traces the previous run() built are carried over when
        # this run needs them again (back-to-back figures share most
        # traces); the rest are released *before* anything new is built,
        # so the parent holds at most one simulating run's traces — never
        # every trace a long campaign ever touched. A run that simulates
        # nothing releases none: the carry is live already, and the next
        # run may need it.
        if pending:
            needed = {spec.trace_key(): spec for spec in pending.values()}
            self._traces = {
                key: t for key, t in self._traces.items() if key in needed
            }
            for key, spec in needed.items():
                if key not in self._traces:
                    self._traces[key] = _build_trace(spec)
        if _FORK and pending:
            # Zero-copy sharing: build the replay records of every trace a
            # pending spec replays, and each pending spec's replay kernel,
            # here: forked workers inherit both, read-only, and an inline
            # run needs the same. Under spawn neither reaches the workers,
            # so neither is built.
            from repro.sim.specialize import kernel_for, kernel_spec
            from repro.sim.tlb import PAGE_SHIFT

            for trace in self._traces.values():
                trace.replay_records(PAGE_SHIFT)
            for spec in pending.values():
                kernel_for(kernel_spec(spec.config))

        # Results persist as they arrive (not after the whole batch), so
        # an interrupted campaign keeps every simulation it finished.
        failures: list[SpecOutcome] = []
        try:
            if pending:
                jobs = min(self.jobs, len(pending))
                for outcome in self._execute(
                    pending.values(), self._traces, jobs
                ):
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
        drain.
        """
        t_start = time.perf_counter()
        try:
            for outcome in self._execute(specs, {}, self.jobs):
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
        self,
        specs: Iterable[Optional[ExperimentSpec]],
        parent_traces: dict[str, Trace],
        jobs: int,
    ) -> Iterator[SpecOutcome]:
        """Yield a terminal :class:`SpecOutcome` per spec pulled from
        ``specs`` as simulations complete, in arbitrary order — the
        caller realigns by key and persists incrementally. Workers
        replay ``parent_traces`` (trace key -> Trace) without building."""
        # Inline fast path: no pool process when nothing needs one. A
        # timeout needs a killable worker, and an active fault plan
        # needs a worker whose death is survivable, so both route
        # through the pool even at jobs=1.
        from repro.exp.faults import active_plan

        if jobs == 1 and self.timeout is None and active_plan() is None:
            yield from self._execute_inline(specs, parent_traces)
            return
        # Import the simulation stack, trace building included, before
        # the pool forks, so every worker inherits it instead of
        # importing it again.
        import multiprocessing

        import repro.sim.engine  # noqa: F401
        import repro.workloads.generator  # noqa: F401
        from repro.exp.pool import FaultTolerantPool
        from repro.workloads import import_makers

        import_makers()

        pool = FaultTolerantPool(
            multiprocessing.get_context("fork" if _FORK else None),
            jobs,
            parent_traces,
            retries=self.retries,
            timeout=self.timeout,
            backoff=self.backoff,
        )
        yield from pool.run(specs)  # which closes the pool however it ends
        if pool.interrupted is not None:
            # Completed outcomes were already yielded (and persisted by
            # the caller); surface the drain as the interrupt it was.
            raise KeyboardInterrupt

    def _execute_inline(
        self,
        specs: Iterable[Optional[ExperimentSpec]],
        parent_traces: dict[str, Trace],
    ) -> Iterator[SpecOutcome]:
        """Single-process execution with the same retry semantics.

        Worker death cannot happen inline (there is no worker), so the
        retry loop only sees engine exceptions; timeouts are pool-only.
        """
        global _PARENT_TRACES
        previous = _PARENT_TRACES
        _PARENT_TRACES = parent_traces
        try:
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
        finally:
            _PARENT_TRACES = previous
