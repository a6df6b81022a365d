"""The paper's seven variants, re-registered as scheduling policies.

Each class carries exactly the capability flags the pre-refactor engine
derived from ``variant == "..."`` string comparisons, plus the decision
methods that used to be ``ReplayEngine._evaluate_migration`` and
``ReplayEngine._steps_switch`` — moved here verbatim so the golden-pin
suite stays byte-identical. The per-record SLICC/STEPS monitoring
remains inlined in the replay loop (it runs on the agent objects these
policies ask the engine to build); only the quantum-ending decision and
the scheduling-event callbacks dispatch through the policy.

A policy imports the machinery it builds (the agent's decision enum, the
type detectors, the PIF geometry) where it builds it, once per engine,
so registering the seven classes loads none of ``repro.core``,
``repro.cache`` or ``repro.prefetch``.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sched.base import (
    MIGRATION_FIELDS,
    SchedulingPolicy,
)
from repro.sched.registry import register_policy

#: Cycles charged per STEPS context switch (Harizopoulos & Ailamaki report
#: a hand-optimised switch far cheaper than an OS one).
STEPS_SWITCH_CYCLES = 24


@register_policy
class BasePolicy(SchedulingPolicy):
    """OS-style static scheduling, no migration (Section 5.1)."""

    name = "base"
    description = "OS-style static scheduling, no migration (Section 5.1)"


@register_policy
class NextLinePolicy(SchedulingPolicy):
    """base + per-core next-line instruction prefetcher."""

    name = "nextline"
    description = "base + per-core next-line instruction prefetcher"
    nextline_prefetch = True


@register_policy
class PifPolicy(SchedulingPolicy):
    """base + the PIF upper-bound L1-I (512KB @ 32KB latency)."""

    name = "pif"
    description = "base + the PIF upper-bound L1-I (512KB @ 32KB latency)"

    @classmethod
    def l1i_params(cls, system):
        from repro.prefetch.pif import pif_l1i_params

        return pif_l1i_params(system.l1i)


class _SliccMachineryPolicy(SchedulingPolicy):
    """Shared behaviour of the three SLICC variants: per-core agents,
    bloom signatures, the 2N pool, and the Q.3 target decision."""

    migrates = True
    slicc_machinery = True
    relevant_fields = MIGRATION_FIELDS

    def bind(self, engine) -> None:
        from repro.core.agent import MigrationReason

        super().bind(engine)
        self._idle_core = MigrationReason.IDLE_CORE

    def evaluate_migration(self, core: int, agent) -> bool:
        """Ask the agent for a migration target; stage it if one exists.

        Returns True when a migration was staged in
        ``engine._pending_target`` (the caller must end the quantum and
        perform it).
        """
        engine = self.engine
        thread_id = engine.running[core]
        allowed = engine._allowed_for(thread_id)
        decision = agent.decide(
            engine._idle_cores(),
            allowed_cores=allowed,
            nearest=lambda cands: engine.machine.torus.nearest(core, cands),
        )
        if decision.target is not None:
            if decision.reason is self._idle_core:
                # The idle core adopts the thread's new segment:
                # unfreeze its fill path.
                engine.agents[decision.target].mc.reset()
            engine._pending_target = decision.target
            return True
        return False

    def on_thread_start(self, core: int) -> None:
        self.engine.agents[core].on_thread_switch()

    def on_migrate(self, core: int, target: int) -> None:
        self.engine.agents[core].on_thread_switch()

    def on_complete(self, core: int) -> None:
        self.engine.agents[core].on_thread_switch()

    def on_steal(self, target: int) -> None:
        # The idle core adopts (replicates) the stolen thread's segment:
        # hot chunks end up on several cores, spreading the convoy that
        # forms behind popular code.
        self.engine.agents[target].mc.reset()


@register_policy
class SliccPolicy(_SliccMachineryPolicy):
    """Type-oblivious SLICC thread migration (Section 4.1)."""

    name = "slicc"
    description = "type-oblivious SLICC thread migration (Section 4.1)"


@register_policy
class SliccSwPolicy(_SliccMachineryPolicy):
    """SLICC + software-provided types + teams (Section 4.3)."""

    name = "slicc-sw"
    description = "SLICC + software-provided types + teams (Section 4.3)"
    team_scheduling = True

    def make_type_source(self):
        from repro.core.txn_types import SoftwareTypeOracle

        return SoftwareTypeOracle()


@register_policy
class SliccPpPolicy(_SliccMachineryPolicy):
    """SLICC + scout-core preamble type detection."""

    name = "slicc-pp"
    description = "SLICC + scout-core preamble type detection"
    team_scheduling = True
    scout_core = True

    def make_type_source(self):
        from repro.core.txn_types import PreambleTypeDetector

        return PreambleTypeDetector()


@register_policy
class StepsPolicy(SchedulingPolicy):
    """STEPS-style same-core time-multiplexing (Section 6)."""

    name = "steps"
    description = "STEPS-style same-core time-multiplexing (Section 6)"
    time_multiplexes = True
    team_scheduling = True
    #: STEPS reads the SLICC thresholds (MC fill-up + MSV dilution drive
    #: its switch decision) but none of the migration knobs.
    relevant_fields = frozenset({"slicc"})

    def make_type_source(self):
        from repro.core.txn_types import SoftwareTypeOracle

        # STEPS groups same-type threads onto the same cores too (its
        # teams run on one core each, time-multiplexed).
        return SoftwareTypeOracle()

    def context_switch(self, core: int) -> None:
        """STEPS context switch: requeue the running thread at the tail
        of its own core's queue and charge the (fast) switch cost."""
        engine = self.engine
        thread_id = engine.running[core]
        if thread_id is None:
            raise SimulationError("context switch with no running thread")
        engine.running[core] = None
        engine.clock[core] += STEPS_SWITCH_CYCLES
        engine.context_switches += 1
        agent = engine.steps_agents[core]
        agent.msv.reset()
        engine.queues.enqueue(core, thread_id)

    def on_thread_start(self, core: int) -> None:
        self.engine.steps_agents[core].msv.reset()
