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

Each worker process builds every distinct trace at most once: declarative
specs regenerate it from ``(workload, scale, n_threads, seed)`` via the
deterministic generators (once per ``run()`` in the parent, reusing the
previous call's traces where they overlap), while explicit traces (specs
built with :func:`~repro.exp.spec.spec_for`) are shipped to the workers
once at pool start. On Linux the pool forks, so the parent materialises
every trace's replay tables first and workers inherit them zero-copy.
Simulation itself is deterministic given the trace and config, so
results are identical whatever the job count — the test suite pins that
with a byte-identical-JSON guard.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.errors import ConfigurationError, SweepFailure
from repro.exp import faults
from repro.exp.pool import FaultTolerantPool, SpecOutcome, _backoff_delay
from repro.exp.spec import ExperimentSpec, trace_fingerprint
from repro.exp.store import ResultStore, result_from_dict, result_to_dict
from repro.params import ScalePreset
from repro.sched import get_policy
from repro.sim.engine import simulate
from repro.sim.results import SimulationResult
from repro.workloads import standard_trace
from repro.workloads.trace import Trace

# Per-process trace state. ``_EXPLICIT`` holds traces shipped by the
# parent (fingerprint -> Trace); ``_TRACE_CACHE`` memoises declaratively
# rebuilt traces so a worker generates each one once however many specs
# share it.
_EXPLICIT: dict[str, Trace] = {}
_TRACE_CACHE: dict[str, Trace] = {}


def _init_worker(explicit: dict[str, Trace]) -> None:
    global _EXPLICIT
    _EXPLICIT = explicit


def _build_trace(spec: ExperimentSpec) -> Trace:
    return standard_trace(
        spec.workload,
        ScalePreset(spec.scale),
        n_threads=spec.n_threads,
        seed=spec.seed,
    )


def _trace_for(spec: ExperimentSpec) -> Trace:
    key = spec.trace_key()
    trace = _EXPLICIT.get(key)
    if trace is not None:
        return trace
    if spec.trace_id is not None:
        raise ConfigurationError(
            f"spec {spec.display_label()!r} references an explicit "
            "trace that was not passed to Runner.run(..., trace=...)"
        )
    # Fallback for a worker handed a declarative spec whose trace was
    # not shipped; memoised so one worker builds each trace at most once.
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = _build_trace(spec)
        _TRACE_CACHE[key] = trace
    return trace


def _run_spec(spec: ExperimentSpec, attempt: int = 0) -> tuple[str, dict, float]:
    """Worker entry point: simulate one spec, return
    ``(key, result dict, seconds)``.

    Results cross the process boundary as plain dicts so fresh and
    store-loaded rows take the identical deserialisation path; the
    per-spec wall time feeds :class:`RunnerStats` timing. ``attempt``
    only feeds the fault-injection harness — chaos runs key their
    deterministic crash/hang schedule on (spec key, attempt) so a retry
    can be scheduled to succeed where the first attempt was killed.
    """
    key = spec.key()
    faults.inject_worker_faults(key, attempt)
    t0 = time.perf_counter()
    result = simulate(_trace_for(spec), config=spec.config)
    return key, result_to_dict(result), time.perf_counter() - t0


@dataclass
class RunnerStats:
    """How a ``run()`` call was served.

    ``cached`` counts input specs answered without simulating (store hits
    plus intra-call duplicates); ``simulated`` counts actual engine runs.
    ``failed`` counts specs with no result after all retries (of which
    ``timed_out`` were killed by the per-spec timeout); ``retried``
    counts extra attempts spent recovering from transient failures.
    ``reclaimed`` counts work-queue leases this runner's process took
    over from expired (dead) workers — the queue drain loop increments
    it, a plain ``run()`` never does. ``wall_seconds`` is the
    end-to-end duration of the ``run()`` call,
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
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        retries: int = 2,
        timeout: Optional[float] = None,
        backoff: float = 0.25,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.jobs = max(1, int(jobs))
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.backoff = backoff
        #: Cumulative counts across all ``run()`` calls.
        self.stats = RunnerStats()
        #: Counts for the most recent ``run()`` call.
        self.last_stats = RunnerStats()
        #: Terminal failures of the most recent ``run()`` call.
        self.last_failures: list[SpecOutcome] = []
        #: Declarative traces built by the most recent ``run()`` call
        #: (trace key -> Trace), offered to the next call for reuse.
        self._traces: dict[str, Trace] = {}

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        trace: Optional[Trace] = None,
        traces: Optional[Sequence[Trace]] = None,
    ) -> list[SimulationResult]:
        """Run every spec, returning results aligned with the input.

        Duplicate keys within one call are simulated once. Explicit
        traces referenced by any spec's ``trace_id`` must be passed via
        ``trace`` (one) or ``traces`` (several).

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
        explicit: dict[str, Trace] = {}
        for t in ([trace] if trace is not None else []) + list(traces or []):
            explicit[trace_fingerprint(t)] = t

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
                if spec.trace_id is not None and spec.trace_id not in explicit:
                    raise ConfigurationError(
                        f"spec {spec.display_label()!r} needs its explicit "
                        "trace: pass it via run(..., trace=...)"
                    )
                pending[key] = spec

        # Resolve each distinct declarative trace once and ship it through
        # the explicit-trace channel (inherited for free under fork,
        # pickled once per worker under spawn). Traces the previous run()
        # built are carried over when this run needs them again (back-to-
        # back figures share most traces); the rest are released *before*
        # anything new is built, so the parent holds at most one run's
        # traces — never every trace a long campaign ever touched.
        needed = {
            spec.trace_key()
            for spec in pending.values()
            if spec.trace_id is None
        }
        self._traces = {
            key: t for key, t in self._traces.items() if key in needed
        }
        for spec in pending.values():
            key = spec.trace_key()
            if spec.trace_id is None and key not in explicit:
                built = self._traces.get(key)
                if built is None:
                    built = self._traces[key] = _build_trace(spec)
                explicit[key] = built

        # Results persist as they arrive (not after the whole batch), so
        # an interrupted campaign keeps every simulation it finished.
        failures: list[SpecOutcome] = []
        self.last_failures = failures
        try:
            for outcome in self._execute(list(pending.values()), explicit):
                stats.retried += outcome.attempts - 1
                if outcome.ok:
                    result = result_from_dict(outcome.payload)
                    served[outcome.key] = result
                    self.store.put(
                        outcome.key, result, spec=pending[outcome.key]
                    )
                    stats.simulated += 1
                    stats.sim_seconds += outcome.seconds
                    stats.spec_seconds[outcome.key] = outcome.seconds
                else:
                    stats.failed += 1
                    if outcome.kind == "timeout":
                        stats.timed_out += 1
                    self.store.put_failure(
                        outcome.key,
                        outcome.failure_record(),
                        spec=pending[outcome.key],
                    )
                    failures.append(outcome)
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

    def _execute(
        self, pending: list[ExperimentSpec], explicit: dict[str, Trace]
    ) -> Iterator[SpecOutcome]:
        """Yield a terminal :class:`SpecOutcome` per pending spec as
        simulations complete, in arbitrary order — the caller realigns
        by key and persists incrementally."""
        if not pending:
            return
        # Inline fast path: no pool process when nothing needs one. A
        # timeout needs a killable worker, and an active fault plan
        # needs a worker whose death is survivable, so both route
        # through the pool even at jobs=1.
        inline = (
            (self.jobs == 1 or len(pending) == 1)
            and self.timeout is None
            and faults.active_plan() is None
        )
        if inline:
            yield from self._execute_inline(pending, explicit)
            return
        # Prefer fork on Linux: workers inherit explicit traces for free
        # instead of re-pickling them. Elsewhere (macOS/Windows) fork is
        # unsafe or absent, so keep the platform's default start method.
        use_fork = sys.platform == "linux"
        if use_fork:
            ctx = multiprocessing.get_context("fork")
            # Zero-copy trace sharing: materialise each trace's replay
            # tables (numpy -> plain-list conversion, page ids) once in
            # the parent, *before* forking, so every worker inherits the
            # ready-to-replay tables through the forked address space
            # instead of rebuilding them per process. The engine treats
            # the tables as read-only, so sharing is safe. Under spawn
            # the tables are deliberately not materialised (they are
            # excluded from pickling; shipping list renderings of the
            # arrays would only bloat the transfer).
            from repro.sim.tlb import PAGE_SHIFT

            for trace in explicit.values():
                for thread in trace.threads:
                    thread.replay_tables(PAGE_SHIFT)
            # Same zero-copy treatment for the batch kernel's SoA
            # arrays: any spec that opts into kernel="batch" gets its
            # trace's arrays built once in the parent, for each distinct
            # cache geometry the pending specs imply (PIF overrides the
            # L1-I), instead of once per worker. Geometry mirrors
            # BatchKernel.__init__; ThreadTrace.batch_tables memoises
            # per geometry and drops the arrays from pickles.
            self._materialise_batch_tables(pending, explicit)
            # And for the specialized kernel: generate + compile each
            # distinct per-config kernel once in the parent so workers
            # inherit the populated memo (specialize._KERNEL_CACHE)
            # through the forked address space instead of regenerating
            # it per process.
            self._materialise_specialized_kernels(pending, explicit)
        else:
            ctx = multiprocessing.get_context()
        pool = FaultTolerantPool(
            ctx,
            min(self.jobs, len(pending)),
            explicit,
            retries=self.retries,
            timeout=self.timeout,
            backoff=self.backoff,
        )
        try:
            yield from pool.run([(spec.key(), spec) for spec in pending])
        finally:
            pool.close()
        if pool.interrupted is not None:
            # Completed outcomes were already yielded (and persisted by
            # the caller); surface the drain as the interrupt it was.
            raise KeyboardInterrupt

    def _execute_inline(
        self, pending: list[ExperimentSpec], explicit: dict[str, Trace]
    ) -> Iterator[SpecOutcome]:
        """Single-process execution with the same retry semantics.

        Worker death cannot happen inline (there is no worker), so the
        retry loop only sees engine exceptions; timeouts are pool-only.
        """
        global _EXPLICIT
        previous = _EXPLICIT
        _EXPLICIT = explicit
        try:
            for spec in pending:
                key = spec.key()
                attempt = 0
                while True:
                    try:
                        _, payload, seconds = _run_spec(spec, attempt)
                    except Exception as exc:
                        attempt += 1
                        if attempt > self.retries:
                            yield SpecOutcome(
                                key=key,
                                spec=spec,
                                ok=False,
                                attempts=attempt,
                                kind="error",
                                error=f"{type(exc).__name__}: {exc}",
                            )
                            break
                        time.sleep(_backoff_delay(self.backoff, key, attempt))
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
        finally:
            _EXPLICIT = previous

    @staticmethod
    def _materialise_batch_tables(
        pending: list[ExperimentSpec], explicit: dict[str, Trace]
    ) -> None:
        """Pre-fork build of the batch kernel's SoA arrays.

        For every pending spec that opts into ``kernel="batch"``, build
        its trace's structure-of-arrays tables in the parent for the
        cache geometry that spec implies, so forked workers inherit the
        arrays zero-copy instead of rebuilding them per process.
        ``ThreadTrace.batch_tables`` memoises one geometry per thread
        (the overwhelmingly common case — geometry only varies across
        specs when PIF's L1-I override is mixed with standard ones), so
        specs are visited in order and the last geometry per trace wins;
        workers rebuild any other geometry on first use, exactly as they
        would have without this pre-pass.
        """
        import os

        batch_specs = [s for s in pending if s.config.kernel == "batch"]
        if not batch_specs:
            return
        from repro.sim.batch import numpy_available

        if not numpy_available() or os.environ.get("REPRO_NO_BATCH"):
            # The runs themselves will raise; nothing useful to share.
            return
        from repro.sim.tlb import PAGE_SHIFT

        for spec in batch_specs:
            trace = explicit.get(spec.trace_key())
            if trace is None:
                continue
            system = spec.config.system
            i_params = get_policy(spec.variant).l1i_params(system)
            if i_params is None:
                i_params = system.l1i
            d_params = system.l1d
            geometry = (
                PAGE_SHIFT,
                i_params.n_sets,
                d_params.n_sets,
                max(i_params.assoc, d_params.assoc),
            )
            for thread in trace.threads:
                thread.batch_tables(*geometry)

    @staticmethod
    def _materialise_specialized_kernels(
        pending: list[ExperimentSpec], explicit: dict[str, Trace]
    ) -> None:
        """Pre-fork generation of the specialized kernels.

        For every pending spec that resolves to ``kernel="specialized"``
        (explicitly, or via ``REPRO_KERNEL=specialized`` re-resolving
        ``auto``), build a throwaway engine in the parent: construction
        generates, compiles and memoises the per-config kernel in
        ``repro.sim.specialize._KERNEL_CACHE``, which forked workers
        then inherit zero-copy. Ineligible or vetoed configs are left
        for the runs themselves to report (explicit requests raise
        there; fleet overrides fall back silently), so this pre-pass
        never fails a sweep.
        """
        import os

        wants_specialized = [
            s for s in pending if s.config.kernel == "specialized"
        ]
        if os.environ.get(
            "REPRO_KERNEL", ""
        ).strip() == "specialized" and not os.environ.get(
            "REPRO_NO_SPECIALIZE"
        ):
            wants_specialized += [
                s for s in pending if s.config.kernel == "auto"
            ]
        if not wants_specialized:
            return
        from repro.sim.engine import ReplayEngine

        seen: set = set()
        for spec in wants_specialized:
            if spec.key() in seen:
                continue
            seen.add(spec.key())
            trace = explicit.get(spec.trace_key())
            if trace is None:
                continue
            try:
                # Construction alone generates, compiles and memoises
                # the kernel (ReplayEngine.__init__ -> kernel_for_engine).
                ReplayEngine(trace, spec.config)
            except ConfigurationError:
                continue
