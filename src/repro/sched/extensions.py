"""Scenario-extension scheduling policies (beyond the paper's seven).

Three ablation policies that bracket SLICC's design space; each decides
only in :meth:`~repro.sched.base.SchedulingPolicy.quantum_end`, so the
per-record replay loop runs the plain ``base`` fast path — the policies
cost one method call per quantum, nothing per record.

``tmi``
    Migrate on fill-up alone: Q.1 (the saturating miss counter) triggers
    a move to the nearest idle core, with no MSV dilution window and no
    bloom broadcast — isolating what SLICC's Q.2/Q.3 machinery buys over
    "spill to a fresh cache when mine is full". With no idle core the
    thread stays and the counter resets (SLICC's STAY rung).

``affinity``
    Static transaction-type → core-partition placement with no migration
    at all: the natural software-only strawman. Each type gets a share
    of the cores proportional to its thread count, computed once from
    the whole trace — exactly what ``phased``'s mid-trace mix shift
    defeats (phase-2-heavy types inherit phase-1-sized partitions).

``random-migrate``
    SLICC's migration *rate* with random targets: the same Q.1 fill-up
    counter plus a quantum-granularity dilution check (misses at least
    ``dilution_t`` per ``msv_window`` accesses) trigger a migration to a
    uniformly random allowed core. Separates "migration helps" from
    "*targeted* migration helps". The RNG is seeded with a fixed
    constant so results stay deterministic and process-independent.

All three feed on per-core L1-I statistics the engine maintains anyway
(quantum_end diffs cumulative counters against a snapshot), so they work
identically through the replay kernel and the reference path.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sched.base import MIGRATION_FIELDS, SchedulingPolicy
from repro.sched.registry import register_policy

#: Fixed RNG seed for ``random-migrate``: simulated results must not
#: depend on process state, worker identity or wall clock.
RANDOM_MIGRATE_SEED = 0x51CC


class _MissWindowPolicy(SchedulingPolicy):
    """Shared plumbing: a per-core saturating miss counter fed at quantum
    boundaries from the engine's L1-I statistics."""

    migrates = True
    quantum_hook = True
    relevant_fields = MIGRATION_FIELDS

    def bind(self, engine) -> None:
        super().bind(engine)
        n = engine.config.system.n_cores
        self._fill_up = engine.config.slicc.fill_up_t
        #: Per-core saturating miss counter (the policy-side MC): like
        #: SLICC's, it describes the *cache*, so it survives thread
        #: switches and resets only on adoption/stay/steal events.
        self._mc = [0] * n
        self._seen_misses = [0] * n
        self._seen_accesses = [0] * n
        self._l1i_stats = [cache.stats for cache in engine.machine.l1i]

    def _quantum_delta(self, core: int) -> tuple[int, int]:
        """(misses, accesses) of ``core`` since its last snapshot."""
        stats = self._l1i_stats[core]
        misses = stats.misses
        accesses = stats.accesses
        d_miss = misses - self._seen_misses[core]
        d_acc = accesses - self._seen_accesses[core]
        self._seen_misses[core] = misses
        self._seen_accesses[core] = accesses
        return d_miss, d_acc

    def on_thread_start(self, core: int) -> None:
        # Re-baseline the snapshot at dispatch: a predecessor that
        # completed or migrated away mid-quantum left its final misses
        # un-snapshotted (quantum_end is not called on those paths).
        # Those misses belong to the cache-centric MC, but not to the
        # new tenant's first per-quantum delta — fold them in here so
        # the trigger checks only ever see the running thread's own
        # quanta.
        d_miss, _ = self._quantum_delta(core)
        mc = self._mc[core]
        if mc < self._fill_up:
            mc += d_miss
            self._mc[core] = self._fill_up if mc > self._fill_up else mc

    def on_steal(self, target: int) -> None:
        # Mirror SLICC's steal_resets_mc semantics: the stealing core
        # adopts (replicates) the stolen thread's segment.
        self._mc[target] = 0


@register_policy
class TmiPolicy(_MissWindowPolicy):
    """Migrate on fill-up alone (no dilution window, no bloom search)."""

    name = "tmi"
    description = (
        "migrate on fill-up alone: Q.1 triggers a hop to the nearest "
        "idle core, no Q.2/Q.3 machinery"
    )

    def bind(self, engine) -> None:
        super().bind(engine)
        self._idle_migrations = 0
        self._stays = 0

    def quantum_end(self, core: int) -> Optional[int]:
        d_miss, _ = self._quantum_delta(core)
        mc = self._mc[core]
        if mc < self._fill_up:
            mc += d_miss
            if mc > self._fill_up:
                mc = self._fill_up
            self._mc[core] = mc
            if mc < self._fill_up:
                return None
        if d_miss == 0:
            # Cache full but the quantum was hit-only: the thread lives
            # inside the assembled segment; nothing to gain by moving.
            return None
        engine = self.engine
        allowed = engine._allowed_for(engine.running[core])
        idle = [c for c in engine._idle_cores() if c != core and c in allowed]
        if idle:
            target = engine.machine.torus.nearest(core, idle)
            # The idle core adopts the incoming thread's segment
            # (mirrors SLICC's IDLE_CORE rung resetting the target MC).
            self._mc[target] = 0
            self._idle_migrations += 1
            return target
        # Nowhere to go: treat the local cache as refilling with the new
        # segment (SLICC's STAY rung) so the thread does not re-trigger
        # on every subsequent quantum.
        self._mc[core] = 0
        self._stays += 1
        return None

    def contribute_stats(self, result) -> None:
        result.idle_core_migrations = self._idle_migrations
        result.stay_decisions = self._stays


@register_policy
class AffinityPolicy(SchedulingPolicy):
    """Static type→core-partition placement, no migration."""

    name = "affinity"
    description = (
        "static transaction-type -> core-partition placement, no "
        "migration (the software-only strawman)"
    )
    team_scheduling = True

    def make_type_source(self):
        from repro.core.txn_types import SoftwareTypeOracle

        return SoftwareTypeOracle()


@register_policy
class RandomMigratePolicy(_MissWindowPolicy):
    """SLICC-rate migration with uniformly random targets."""

    name = "random-migrate"
    description = (
        "matched migration rate with uniformly random targets (separates "
        "'migration helps' from 'targeted migration helps')"
    )

    def bind(self, engine) -> None:
        super().bind(engine)
        slicc = engine.config.slicc
        self._dilution_t = slicc.dilution_t
        self._msv_window = slicc.msv_window
        self._rng = random.Random(RANDOM_MIGRATE_SEED)
        self._idle_migrations = 0

    def quantum_end(self, core: int) -> Optional[int]:
        d_miss, d_acc = self._quantum_delta(core)
        mc = self._mc[core]
        if mc < self._fill_up:
            mc += d_miss
            if mc > self._fill_up:
                mc = self._fill_up
            self._mc[core] = mc
            return None
        # Q.2 analogue at quantum granularity: migrate only when misses
        # are at least as frequent as dilution_t-in-msv_window.
        if d_acc == 0 or d_miss * self._msv_window < self._dilution_t * d_acc:
            return None
        engine = self.engine
        allowed = engine._allowed_for(engine.running[core])
        candidates = [
            c for c in engine.worker_cores if c != core and c in allowed
        ]
        if not candidates:
            return None
        target = candidates[self._rng.randrange(len(candidates))]
        if engine.running[target] is None and engine.queues.is_empty(target):
            # Landed on an idle core by chance: it adopts the segment,
            # exactly like the targeted policies' idle rung.
            self._mc[target] = 0
            self._idle_migrations += 1
        return target

    def contribute_stats(self, result) -> None:
        result.idle_core_migrations = self._idle_migrations
