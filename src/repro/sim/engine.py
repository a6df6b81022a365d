"""Trace-replay simulation engine.

Replays a :class:`repro.workloads.trace.Trace` on a :class:`Machine`
under one *scheduling policy* (``SimConfig.variant`` names it). Policies
live in the :mod:`repro.sched` registry — the paper's seven variants:

======================  =====================================================
``base``                OS-style static scheduling, no migration (Section 5.1)
``nextline``            base + per-core next-line instruction prefetcher
``pif``                 base + the PIF upper-bound L1-I (512KB @ 32KB latency)
``slicc``               type-oblivious SLICC thread migration (Section 4.1)
``slicc-sw``            SLICC + software-provided types + teams (Section 4.3)
``slicc-pp``            SLICC + scout-core preamble type detection
``steps``               STEPS-style same-core time-multiplexing (Section 6)
======================  =====================================================

plus the scenario extensions (``tmi``, ``affinity``, ``random-migrate``
— see :mod:`repro.sched.extensions`). The engine owns the mechanism
(caches, queues, agents); the policy object declares which machinery
to build and makes the scheduling decisions, only at quantum boundaries
and scheduling events — the per-record hot path stays policy-free (see
DESIGN.md's policy-subsystem section). The replay loop itself is
generated per configuration by :mod:`repro.sim.specialize`.

Scheduling model: every core has a local cycle clock and a FIFO thread
queue; an event heap always advances the core that is earliest in time,
running its current thread for up to ``quantum`` records before
rescheduling. This quantum interleaving approximates the concurrency of
the paper's cycle-accurate Zesto runs while staying fast enough for
parameter sweeps (DESIGN.md section 3 discusses the substitution).

A thread runs on exactly one core at a time. Migration enqueues the
thread at the target core and charges it the Thread-Motion-style context
transfer cost (Section 4.4) when it next starts running.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.cache.classify import MissClass, MissClassifier
from repro.core.agent import SliccAgent
from repro.core.scheduler import ThreadQueues
from repro.core.txn_types import PreambleTypeDetector
from repro.errors import ConfigurationError, SimulationError
from repro.prefetch.nextline import NextLinePrefetcher
from repro.sched import SchedulingPolicy, get_policy
from repro.sim.config import SimConfig
from repro.sim.machine import Machine
from repro.sim.results import SimulationResult
from repro.sim.specialize import kernel_for, kernel_spec
from repro.sim.timing import TimingModel
from repro.sim.tlb import PAGE_SHIFT
from repro.workloads.trace import Trace

#: Cycles of L2 bandwidth charged per block shipped by the migration data
#: prefetcher (Section 5.5's mitigation experiment).
DATA_PREFETCH_CYCLES_PER_BLOCK = 2

#: One in this many bypassed misses installs anyway (gap self-repair; see
#: the segment-protection comment in ``_process_instruction``).
BYPASS_REPAIR_RATE = 8


class _ThreadState:
    """Mutable replay position of one thread.

    ``addr``/``kind``/``page`` are plain-list renderings of the trace
    arrays (page ids precomputed), bound at admission from the cache on
    the thread trace (:meth:`ThreadTrace.replay_tables`): indexing a
    Python list yields cached small ints where indexing a numpy array
    allocates a numpy scalar that must then be unboxed — a large
    per-record cost in the replay loop — and the tables are shared
    read-only across every simulation of the same trace.
    """

    __slots__ = ("trace", "pos", "pending_cycles", "done", "addr", "kind", "page")

    def __init__(self, trace) -> None:
        self.trace = trace
        self.pos = 0
        self.pending_cycles = 0
        self.done = False
        self.addr: Optional[list[int]] = None
        self.kind: Optional[list[int]] = None
        self.page: Optional[list[int]] = None


class ReplayEngine:
    """Replays one trace under one configuration. Single-use."""

    def __init__(self, trace: Trace, config: SimConfig) -> None:
        self.trace = trace
        self.config = config
        system = config.system
        self.timing_base = system

        variant = config.variant
        # The policy object carries all variant-specific capability flags
        # and decisions; the engine attributes below mirror its flags so
        # the construction and hot-loop code reads the same as before.
        policy_cls = get_policy(variant)
        self.policy: SchedulingPolicy = policy_cls(config)
        self.is_slicc = self.policy.slicc_machinery
        # STEPS (Section 6): time-multiplex similar threads on one core,
        # context-switching when the running thread leaves the cached
        # chunk (dilution), instead of migrating between cores.
        self.is_steps = self.policy.time_multiplexes

        l1i_params = policy_cls.l1i_params(system)
        self.machine = Machine(
            system,
            slicc=config.slicc if self.is_slicc else None,
            l1i_params=l1i_params,
            with_signatures=self.is_slicc,
            model_l2_capacity=config.model_l2_capacity,
        )
        self.timing = TimingModel(system, self.machine.l1i_params.hit_latency)

        n = system.n_cores
        # SLICC-Pp dedicates the last core to preamble scouting.
        if self.policy.scout_core:
            self.worker_cores = list(range(n - 1))
        else:
            self.worker_cores = list(range(n))
        self._worker_set = frozenset(self.worker_cores)
        #: Worker cores as a bitmask (the fused presence-probe operand).
        self._worker_mask = sum(1 << c for c in self.worker_cores)

        self.queues = ThreadQueues(n)
        self.agents: Optional[list[SliccAgent]] = None
        if self.is_slicc:
            self.agents = [
                SliccAgent(core, config.slicc, n) for core in range(n)
            ]
        self.steps_agents: Optional[list[SliccAgent]] = None
        if self.is_steps:
            # STEPS reuses the MSV dilution detector per core, nothing
            # else of the SLICC machinery.
            self.steps_agents = [
                SliccAgent(core, config.slicc, n) for core in range(n)
            ]

        self.data_prefetcher = None
        if config.data_prefetch_n > 0 and self.policy.migrates:
            from repro.prefetch.migration_data import MigrationDataPrefetcher

            self.data_prefetcher = MigrationDataPrefetcher(
                config.data_prefetch_n
            )

        # Type-aware scheduling (SLICC-SW / SLICC-Pp): partition the
        # worker cores among transaction types proportionally to their
        # share of the thread mix, so same-type threads co-schedule on the
        # same caches and pipeline (Section 4.3.2's teams, realised as a
        # static partition — robust under any arrival pattern, whereas
        # dynamic team formation needs a deep standing pool to group
        # from). Types too small to earn 2 cores pool into a shared
        # region and behave like the paper's stray threads.
        self.type_source = self.policy.make_type_source()
        self._partition: Optional[dict[int, frozenset[int]]] = None
        self._thread_type_key: dict[int, int] = {}
        if self.type_source is not None:
            counts: dict[int, int] = {}
            for thread in trace.threads:
                key = self.type_source.type_of(thread)
                self._thread_type_key[thread.thread_id] = key
                counts[key] = counts.get(key, 0) + 1
            self._partition = self._build_partition(counts)

        # Sorted-tuple mirror of each partition region, precomputed so
        # placement does not re-sort the allowed frozenset per thread.
        self._worker_sorted = tuple(self.worker_cores)
        self._partition_sorted: Optional[dict[int, tuple[int, ...]]] = None
        if self._partition is not None:
            self._partition_sorted = {
                key: tuple(sorted(cores))
                for key, cores in self._partition.items()
            }

        self.prefetchers: Optional[list[NextLinePrefetcher]] = None
        if self.policy.nextline_prefetch:
            self.prefetchers = []
            for core in range(n):
                pf = NextLinePrefetcher(self.machine.l1i[core])
                self.machine.l1i[core].on_evict = pf.on_evict
                self.prefetchers.append(pf)

        self.i_classifiers: Optional[list[MissClassifier]] = None
        self.d_classifiers: Optional[list[MissClassifier]] = None
        if config.collect_miss_classes:
            self.i_classifiers = [
                MissClassifier(self.machine.l1i_params.n_blocks)
                for _ in range(n)
            ]
            self.d_classifiers = [
                MissClassifier(system.l1d.n_blocks) for _ in range(n)
            ]

        # Thread / core state.
        self.threads = [_ThreadState(t) for t in trace.threads]
        self.running: list[Optional[int]] = [None] * n
        self.clock = [0] * n
        self._heap: list[tuple[int, int, int]] = []
        self._in_heap = [False] * n
        self._seq = 0
        self._arrival_ptr = 0
        self._resident = 0
        # SLICC manages a 2N pool (Section 5.1); STEPS also needs peers
        # queued per core to multiplex between.
        pool_factor = (
            config.slicc.thread_pool_factor
            if (self.policy.migrates or self.is_steps)
            else 1
        )
        self.pool_size = pool_factor * len(self.worker_cores)

        spacing = config.arrival_spacing
        if spacing is None:
            # Throughput-matched arrival rate: one thread per (mean thread
            # service time / worker count), using the base cycle cost as
            # the service-time proxy.
            mean_records = trace.total_records / len(trace.threads)
            spacing = int(
                mean_records
                * system.base_cycles_per_iblock
                / max(1, len(self.worker_cores))
            )
        self._arrival_time = [spacing * i for i in range(len(self.threads))]

        # Work-stealing knobs, resolved once (the _rebalance early-out
        # runs on every migration and completion).
        self._steal_enabled = self.policy.migrates and config.work_stealing
        self._steal_min_depth = config.steal_min_depth
        self._steal_resets_mc = config.steal_resets_mc

        # Statistics.
        self.migrations = 0
        self.context_switches = 0
        self.steals = 0
        self.completed = 0
        self._bypass_tick = 0
        self.busy_cycles = 0
        self.cycles_base = 0
        self.cycles_i_stall = 0
        self.cycles_d_stall = 0
        self.cycles_migration = 0
        self.cycles_tlb = 0
        self._ran = False

        # Policy attachment: the policy allocates its per-run state
        # against the fully built machine, and its decision entry points
        # are bound as engine attributes so the replay loop dispatches
        # through one bound-method call.
        policy = self.policy
        policy.bind(self)
        self._evaluate_migration = policy.evaluate_migration
        self._steps_switch = policy.context_switch
        self._policy_on_complete = (
            type(policy).on_complete is not SchedulingPolicy.on_complete
        )

    # ------------------------------------------------------------------
    # Heap / activation helpers
    # ------------------------------------------------------------------

    def _build_partition(
        self, counts: dict[int, int]
    ) -> dict[int, frozenset[int]]:
        """Split the worker cores among types by thread-count share.

        Types earning fewer than 2 cores pool into a shared region
        (key ``-1``) alongside any leftover cores — their threads are the
        equivalent of the paper's strays.

        The paper forms teams dynamically (Section 4.3.2): a type's
        waiting threads become a team once they number at least 0.5N
        for N worker cores. Its 1K-task arrival stream always holds that
        many same-type threads; below paper scale a 2N-thread window
        holds few threads of each type, so that rule would make strays
        of all but the most common types. The static share split keeps
        type-aware placement engaged at every scale.
        """
        workers = list(self.worker_cores)
        total = max(1, sum(counts.values()))
        n = len(workers)
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        small_keys = [k for k, c in ordered if round(n * c / total) < 2]
        # Reserve a pool region when small types exist.
        reserve = 2 if small_keys else 0
        assignment: dict[int, frozenset[int]] = {}
        cursor = 0
        for key, count in ordered:
            if key in small_keys:
                continue
            want = round(n * count / total)
            avail = n - reserve - cursor
            take = min(want, avail)
            if take < 2:
                small_keys.append(key)
                continue
            assignment[key] = frozenset(workers[cursor : cursor + take])
            cursor += take
        pool = frozenset(workers[cursor:])
        if pool:
            for key in small_keys:
                assignment[key] = pool
            assignment[-1] = pool
        else:
            # Everything assigned exactly: strays roam the whole chip.
            for key in small_keys:
                assignment[key] = frozenset(workers)
            assignment[-1] = frozenset(workers)
        return assignment

    def _allowed_for(self, thread_id: int) -> frozenset[int]:
        """Cores a thread may be placed on / migrate to."""
        if self._partition is None:
            return self._worker_set
        key = self._thread_type_key.get(thread_id, -1)
        return self._partition.get(key, self._worker_set)

    def _activate(self, core: int, at_cycle: int) -> None:
        """Ensure a core with work is in the event heap."""
        if self._in_heap[core]:
            return
        self.clock[core] = max(self.clock[core], at_cycle)
        self._seq += 1
        heapq.heappush(self._heap, (self.clock[core], self._seq, core))
        self._in_heap[core] = True

    def _idle_cores(self) -> list[int]:
        """Worker cores with nothing running and nothing queued."""
        running = self.running
        queues = self.queues._queues
        return [
            c
            for c in self.worker_cores
            if running[c] is None and not queues[c]
        ]

    def _rebalance(self, now: int) -> None:
        """Idle-core work stealing (migrating policies only — the SLICC
        variants plus the tmi/random-migrate extensions).

        Same-type threads chase the same segment sequence, so they pile
        up in the queue of whichever core holds the next segment while
        other cores run dry. An idle core adopting the *tail* of the
        deepest compatible queue keeps utilisation up; the
        ``steal_resets_mc`` knob controls whether the stolen-to core
        also unfreezes its fill path (see :class:`SimConfig` — this
        engine deliberately does *not* reset the MC on queue drain, so
        by default assembled segments survive steals).
        This implements the paper's stated scheduler goal of maximising
        core utilisation and reducing queuing delay (Section 4.3.2).
        """
        if not self._steal_enabled:
            return
        idle = self._idle_cores()
        if not idle:
            return
        for victim in self.queues.deepest_cores(
            min_depth=self._steal_min_depth
        ):
            if not idle:
                break
            thread_id = self.queues.steal_tail(victim)
            if thread_id is None:
                continue
            allowed = self._allowed_for(thread_id)
            target = next((c for c in idle if c in allowed), None)
            if target is None:
                # No compatible idle core; put the thread back.
                self.queues.enqueue(victim, thread_id)
                continue
            idle.remove(target)
            self.steals += 1
            if self._steal_resets_mc:
                # The stealing core adopts (replicates) the stolen
                # thread's segment — each policy resets its own fill
                # tracker (the SLICC agents' MC, or policy-local state).
                self.policy.on_steal(target)
            self.queues.enqueue(target, thread_id)
            self._activate(target, now)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _admit_threads(self, now: int) -> None:
        """Pull threads from the arrival stream into the resident pool.

        A thread is admitted once it has arrived (its arrival time is due)
        and the pool has room (N threads for the baseline's OS scheduler,
        2N for SLICC — Section 5.1).
        """
        while (
            self._arrival_ptr < len(self.threads)
            and self._arrival_time[self._arrival_ptr] <= now
            and self._resident < self.pool_size
        ):
            thread_id = self._arrival_ptr
            self._arrival_ptr += 1
            self._resident += 1
            state = self.threads[thread_id]
            if state.addr is None:
                # Bind the shared numpy -> list tables (see _ThreadState).
                state.addr, state.kind, state.page = (
                    state.trace.replay_tables(PAGE_SHIFT)
                )
            if isinstance(self.type_source, PreambleTypeDetector):
                # Scout-core preprocessing: a few tens of instructions on
                # the dedicated core before the thread starts working.
                state.pending_cycles += (
                    self.type_source.scout_records * self.timing.ibase
                )
            core = self._place_core(thread_id)
            self.queues.enqueue(core, thread_id)
            self._activate(core, now)

    def _place_core(self, thread_id: int) -> int:
        """Naive load balancing within the thread's allowed region:
        idle core first, else shortest queue (Section 4.1)."""
        allowed = self._allowed_for(thread_id)
        idle = [c for c in self._idle_cores() if c in allowed]
        if idle:
            return idle[0]
        if self._partition_sorted is None:
            region = self._worker_sorted
        else:
            key = self._thread_type_key.get(thread_id, -1)
            region = self._partition_sorted.get(key, self._worker_sorted)
        return self.queues.least_congested(allowed=region)

    # ------------------------------------------------------------------
    # Record processing
    # ------------------------------------------------------------------

    def _process_instruction(self, core: int, block: int) -> tuple[int, bool]:
        """One instruction-block record; returns (cycles, migrate_checked).

        The second element is True when SLICC decided to migrate — the
        caller must stop the quantum and perform the migration (the
        decision is stored in ``self._pending_target``).

        The TLB has already been consulted by the caller (the kernel's
        TLB lookup runs for every record); this path owns everything
        from the L1 down. It is the reference implementation that
        ``kernel="reference"`` routes every record through; the
        generated fast path must match it byte for byte.
        """
        machine = self.machine
        timing = self.timing
        cycles = timing.ibase
        self.cycles_base += timing.ibase

        # Segment protection: once this core's cache is full of a useful
        # segment (MC saturated), demand misses mostly bypass the fill
        # path so a thread streaming towards a *different* segment cannot
        # erode the collective other threads rely on. One in
        # BYPASS_REPAIR_RATE bypassed misses still installs: the blocks a
        # thread misses during its migration-decision window ("gaps" in
        # the paper's terms, Section 4.2.2) would otherwise be cached
        # nowhere and re-missed by every pass; the occasional install
        # accretes them onto the core where the gap occurs, repairing the
        # seam. Installs resume fully after the MC resets (a STAY
        # decision, or the core adopting a thread by idle-core migration
        # or a steal).
        fill = True
        if self.agents is not None and self.agents[core].cache_full:
            self._bypass_tick += 1
            fill = self._bypass_tick % BYPASS_REPAIR_RATE == 0
        hit = machine.l1i[core].access_fast(block, fill=fill)
        if self.i_classifiers is not None:
            self.i_classifiers[core].observe(block, hit)

        if hit:
            if self.prefetchers is not None and self.prefetchers[
                core
            ].consume_if_prefetched(block):
                late = timing.prefetch_late(True)
                cycles += late
                self.cycles_i_stall += late
        else:
            if machine.nuca is not None:
                l2_hit, l2_cycles = machine.nuca.access(core, block)
                penalty = (
                    l2_cycles + timing.system.frontend_refill_cycles
                    if l2_hit
                    else timing.i_miss(False)
                )
            else:
                penalty = timing.i_miss(machine.l2_touch(block))
            cycles += penalty
            self.cycles_i_stall += penalty
            if fill:
                machine.signature_insert(core, block)
            if self.prefetchers is not None:
                prefetched = self.prefetchers[core].on_demand_miss(block)
                if prefetched is not None:
                    machine.l2_touch(prefetched)

        if self.steps_agents is not None:
            agent = self.steps_agents[core]
            agent.observe_access(hit)
            if not agent.cache_full:
                return cycles, False
            if (
                not hit
                and agent.msv.dilution_reached
                and not self.queues.is_empty(core)
            ):
                # The running thread left the cached chunk and peers are
                # waiting: context switch (STEPS time-multiplexing).
                self._pending_target = -1
                return cycles, True
            return cycles, False

        if self.agents is None:
            return cycles, False

        agent = self.agents[core]
        gather = agent.observe_access(hit)
        if gather:
            mask = machine.presence_mask(block, core, self._worker_mask)
            agent.note_miss_presence(mask)
            if agent.migration_enabled and self._evaluate_migration(
                core, agent
            ):
                return cycles, True
        return cycles, False

    def _process_data(self, core: int, block: int, is_store: bool) -> int:
        """One data record; returns cycles charged.

        As with :meth:`_process_instruction`, the TLB was already
        handled by the caller.
        """
        machine = self.machine
        timing = self.timing
        cycles = timing.dbase
        self.cycles_base += timing.dbase

        if self.data_prefetcher is not None:
            thread_id = self.running[core]
            self.data_prefetcher.record_access(thread_id, block)
            if not machine.l1d[core].probe(block):
                self.data_prefetcher.note_demand(thread_id, block)
        hit = machine.l1d[core].access_fast(block)
        if self.d_classifiers is not None:
            self.d_classifiers[core].observe(block, hit)
        if not hit:
            if machine.nuca is not None:
                l2_hit, _ = machine.nuca.access(core, block)
                penalty = timing.d_miss(l2_hit, is_store)
            else:
                penalty = timing.d_miss(machine.l2_touch(block), is_store)
            cycles += penalty
            self.cycles_d_stall += penalty
        if is_store:
            machine.directory.on_write(core, block)
        elif not hit:
            machine.directory.on_read(core, block)
        return cycles

    # ------------------------------------------------------------------
    # Migration / completion
    # ------------------------------------------------------------------

    def _migrate(self, core: int, target: int) -> None:
        """Move the running thread of ``core`` to ``target``'s queue."""
        thread_id = self.running[core]
        if thread_id is None:
            raise SimulationError("migration from a core with no thread")
        state = self.threads[thread_id]
        hops = self.machine.torus.hops(core, target)
        cost = self.timing.migration(hops)
        if self.data_prefetcher is not None:
            # Ship the last-n data tags to the target L1-D (Section 5.5).
            blocks = self.data_prefetcher.blocks_for_migration(thread_id)
            for block in blocks:
                self.machine.l1d[target].install(block)
                self.machine.directory.on_read(target, block)
            cost += DATA_PREFETCH_CYCLES_PER_BLOCK * len(blocks)
        state.pending_cycles += cost
        self.cycles_migration += cost
        self.running[core] = None
        self.policy.on_migrate(core, target)
        self.migrations += 1
        self.queues.enqueue(target, thread_id)
        self._activate(target, self.clock[core])
        self._rebalance(self.clock[core])

    def _complete(self, core: int, now: int) -> None:
        """The running thread of ``core`` finished all its records."""
        thread_id = self.running[core]
        state = self.threads[thread_id]
        state.done = True
        self.running[core] = None
        self.completed += 1
        self._resident -= 1
        if self._policy_on_complete:
            self.policy.on_complete(core)
        self._admit_threads(now)
        self._rebalance(now)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full trace; returns aggregated results.

        Admission and result collection live here; everything between —
        the event loop, every record, the scheduling tail — is the
        generated kernel for this configuration (:mod:`repro.sim.specialize`).
        """
        if self._ran:
            raise SimulationError("ReplayEngine instances are single-use")
        self._ran = True
        self._pending_target: Optional[int] = None
        self._admit_threads(now=0)
        kernel_for(kernel_spec(self.config))(self)
        if self.completed != len(self.threads):
            raise SimulationError(
                f"run ended with {self.completed}/{len(self.threads)} "
                "threads completed — scheduler deadlock"
            )
        return self._collect_results()

    # ------------------------------------------------------------------

    def _collect_results(self) -> SimulationResult:
        machine = self.machine
        result = SimulationResult(
            variant=self.config.variant,
            workload=self.trace.workload,
            cycles=max(self.clock),
            instructions=self.trace.total_instructions,
            i_accesses=machine.total_i_accesses(),
            i_misses=machine.total_i_misses(),
            d_accesses=machine.total_d_accesses(),
            d_misses=machine.total_d_misses(),
            migrations=self.migrations,
            invalidations=machine.directory.invalidations_sent,
            itlb_misses=sum(t.misses for t in machine.itlb),
            dtlb_misses=sum(t.misses for t in machine.dtlb),
            threads_completed=self.completed,
            context_switches=self.context_switches,
            cycles_base=self.cycles_base,
            cycles_i_stall=self.cycles_i_stall,
            cycles_d_stall=self.cycles_d_stall,
            cycles_migration=self.cycles_migration,
            cycles_tlb=self.cycles_tlb,
        )
        makespan = max(self.clock)
        if makespan:
            n_workers = len(self.worker_cores)
            result.utilization = self.busy_cycles / (n_workers * makespan)
        if self.agents is not None:
            result.broadcasts = sum(a.stats.broadcasts for a in self.agents)
            result.segment_match_migrations = sum(
                a.stats.segment_match_migrations for a in self.agents
            )
            result.idle_core_migrations = sum(
                a.stats.idle_core_migrations for a in self.agents
            )
            result.stay_decisions = sum(
                a.stats.stay_decisions for a in self.agents
            )
        if self._partition is not None:
            # Report the number of distinct type regions as "teams".
            regions = {cores for key, cores in self._partition.items() if key != -1}
            result.teams_completed = len(regions)
        if self.i_classifiers is not None:
            instructions = self.trace.total_instructions
            result.miss_class_mpki = {
                "instruction": self._class_mpki(self.i_classifiers, instructions),
                "data": self._class_mpki(self.d_classifiers, instructions),
            }
        self.policy.contribute_stats(result)
        return result

    @staticmethod
    def _class_mpki(
        classifiers: list[MissClassifier], instructions: int
    ) -> dict[str, float]:
        out = {}
        for miss_class in MissClass:
            total = sum(c.counts[miss_class] for c in classifiers)
            out[miss_class.value] = 1000.0 * total / instructions
        return out


def simulate(trace: Trace, config: Optional[SimConfig] = None, **kwargs) -> SimulationResult:
    """Convenience wrapper: build an engine, run it, return the result.

    ``kwargs`` are forwarded to :class:`SimConfig` when ``config`` is not
    given (e.g. ``simulate(trace, variant="slicc-sw")``).
    """
    if config is None:
        config = SimConfig(**kwargs)
    elif kwargs:
        raise ConfigurationError("pass either a SimConfig or kwargs, not both")
    engine = ReplayEngine(trace, config)
    try:
        return engine.run()
    finally:
        # A finished engine is a web of reference cycles (policy <->
        # engine, the coherence directory <-> its L1-Ds, each bloom
        # signature or prefetcher <-> its L1-I), so it would otherwise
        # wait for a full collector pass, holding its caches and the
        # directory's per-block sharer sets (tens of MB at ci scale).
        # Nothing else holds this engine: cut the cycles so reference
        # counting frees it now.
        for cache in (*engine.machine.l1i, *engine.machine.l1d):
            cache.on_evict = None
        engine.__dict__.clear()
