"""The per-core SLICC agent: when to migrate, and where to (Section 4).

The agent answers the three questions of Section 4.1 using the three
tracking structures of Section 4.2:

* **Q.1 — is the cache full of useful blocks?** The saturating miss
  counter (:class:`MissCounter`) says yes once ``fill_up_t`` misses have
  been observed since the last reset.
* **Q.2 — is the thread done with the cached segment?** The miss
  shift-vector (:class:`MissShiftVector`) enables migration only when
  misses are *frequent* in the recent access window (dilution >=
  ``dilution_t``), distinguishing "moving to a new segment" from "briefly
  diverging".
* **Q.3 — where to?** The missed-tag queue (:class:`MissedTagQueue`)
  ANDs the presence vectors of the last ``matched_t`` missed tags; a core
  holding all of them is predicted to cache the next segment. Failing
  that, an idle core; failing that, stay put.

The agent is deliberately engine-agnostic: the replay loop feeds it
access outcomes and presence vectors, and the SLICC scheduling policies
(:mod:`repro.sched.legacy`) call :meth:`SliccAgent.decide` and interpret
the returned :class:`MigrationDecision`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.core.miss_counter import MissCounter
from repro.core.miss_shift_vector import MissShiftVector
from repro.core.missed_tag_queue import MissedTagQueue
from repro.params import SliccParams


class MigrationReason(Enum):
    """Why a migration decision chose its target (Q.3's three rungs)."""

    SEGMENT_MATCH = "segment_match"
    IDLE_CORE = "idle_core"
    STAY = "stay"


@dataclass(frozen=True)
class MigrationDecision:
    """Outcome of one migration evaluation.

    ``target`` is ``None`` for a STAY decision.
    """

    reason: MigrationReason
    target: Optional[int] = None


@dataclass
class AgentStats:
    """Per-agent event counters (feeds Section 5.8's BPKI numbers)."""

    broadcasts: int = 0
    segment_match_migrations: int = 0
    idle_core_migrations: int = 0
    stay_decisions: int = 0


class SliccAgent:
    """SLICC monitoring and migration logic for one core."""

    def __init__(self, core_id: int, params: SliccParams, n_cores: int) -> None:
        self.core_id = core_id
        self.params = params
        self.n_cores = n_cores
        self.mc = MissCounter(params.fill_up_t)
        self.msv = MissShiftVector(params.msv_window, params.dilution_t)
        self.mtq = MissedTagQueue(params.matched_t, n_cores)
        self.stats = AgentStats()

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    @property
    def cache_full(self) -> bool:
        """Q.1: has this core's L1-I captured a full segment?"""
        return self.mc.full

    def observe_access(self, hit: bool) -> bool:
        """Feed one L1-I access outcome.

        Returns True when the engine should gather a presence vector for
        this miss (i.e. the cache is full, so the miss is part of a
        potential next-segment preamble). Keeping the gather conditional
        saves the remote probes when migration is impossible anyway.
        """
        if not self.mc.full:
            if not hit:
                self.mc.record_miss()
            return False
        self.msv.record(not hit)
        return not hit

    def note_miss_presence(self, presence_mask: int) -> None:
        """Record where the just-missed block is cached (MTQ push).

        In the directory/piggyback designs of Section 4.2.3 this sharing
        information rides on the ordinary miss messages, so it is not
        counted as broadcast traffic; explicit search broadcasts are
        counted per :meth:`decide` evaluation instead (Section 5.8).
        """
        self.mtq.record(presence_mask)

    @property
    def migration_enabled(self) -> bool:
        """Q.2: is the thread leaving its segment (dilution reached)?"""
        return self.mc.full and self.msv.dilution_reached and self.mtq.full

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

    def decide(
        self,
        idle_cores: list[int],
        allowed_cores: Optional[frozenset[int]] = None,
        nearest: Optional[callable] = None,
    ) -> MigrationDecision:
        """Q.3: pick a migration target.

        Args:
            idle_cores: cores with no running thread and an empty queue.
            allowed_cores: restriction imposed by team scheduling (None
                means every core is fair game).
            nearest: ``f(candidates) -> core`` tie-breaker, typically the
                torus distance; defaults to lowest id.
        """
        self.stats.broadcasts += 1
        candidates = self.mtq.common_cores(exclude=self.core_id)
        if allowed_cores is not None:
            candidates = [c for c in candidates if c in allowed_cores]
        if candidates:
            target = nearest(candidates) if nearest else candidates[0]
            self.stats.segment_match_migrations += 1
            return MigrationDecision(MigrationReason.SEGMENT_MATCH, target)

        idle = [c for c in idle_cores if c != self.core_id]
        if allowed_cores is not None:
            idle = [c for c in idle if c in allowed_cores]
        if idle:
            target = nearest(idle) if nearest else idle[0]
            self.stats.idle_core_migrations += 1
            return MigrationDecision(MigrationReason.IDLE_CORE, target)

        # No remote match and no idle core: the thread stays and will keep
        # missing locally, i.e. it is loading a *new* segment over the old
        # one (Section 4.1's "SLICC opts for incurring the instruction
        # misses locally"). Treat the cache as refilling: reset MC so the
        # fill proceeds without re-searching on every miss — this is what
        # keeps search broadcasts rare (Section 5.8).
        self.stats.stay_decisions += 1
        self.mc.reset()
        self.msv.reset()
        self.mtq.reset()
        return MigrationDecision(MigrationReason.STAY)

    # ------------------------------------------------------------------
    # Resets
    # ------------------------------------------------------------------

    def on_thread_switch(self) -> None:
        """The running thread changed (migration in/out or dispatch).

        MSV and MTQ describe the *current thread's* recent behaviour, so
        they reset; the MC describes the *cache*, so it persists.
        """
        self.msv.reset()
        self.mtq.reset()
