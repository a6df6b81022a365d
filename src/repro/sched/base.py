"""The scheduling-policy interface.

A :class:`SchedulingPolicy` bundles everything that used to be a
``variant == "..."`` branch inside :class:`~repro.sim.engine.ReplayEngine`:

* **Capability flags** (class attributes) that tell the engine which
  machinery to build — migration pool and work stealing, per-record SLICC
  agents and bloom signatures, STEPS time multiplexing, type-aware team
  partitioning, the scout core, the next-line prefetcher, the PIF L1-I.
  The engine owns the *mechanism* (caches, queues, agents, the replay
  loop); the policy owns the *decisions* and declares which mechanisms it
  needs.
* **Decision hooks** invoked only at scheduling events — quantum
  boundaries, migrations, completions, steals, thread dispatch — never
  per record. The replay hot loop stays policy-free: legacy SLICC/STEPS
  decisions remain inlined in the loop (gated on the agent objects the
  policy asked for), and new policies decide in :meth:`quantum_end`,
  which the engine calls at most once per quantum.
* **``relevant_fields``**, the set of :class:`~repro.sim.config.SimConfig`
  fields that can influence results under this policy. The experiment
  layer's canonical cache keys zero every other policy-gated field, so
  e.g. a ``steal_min_depth`` sweep of a non-stealing policy collapses to
  one key instead of silently fragmenting the result store.

Policies are registered by class via
:func:`repro.sched.registry.register_policy` and instantiated once per
:class:`~repro.sim.engine.ReplayEngine`; instances may keep per-run
mutable state (counters, RNGs) but must be deterministic — two engines
built from the same trace and config must produce byte-identical
results, which is what the golden-pin suite enforces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.params import CacheParams, SystemParams
    from repro.sim.config import SimConfig
    from repro.sim.engine import ReplayEngine
    from repro.sim.results import SimulationResult

#: SimConfig fields whose effect is policy-dependent; everything not in a
#: policy's :attr:`SchedulingPolicy.relevant_fields` is canonicalised to
#: its default when computing experiment cache keys.
POLICY_GATED_FIELDS = (
    "slicc",
    "work_stealing",
    "steal_min_depth",
    "steal_resets_mc",
    "data_prefetch_n",
)

#: ``relevant_fields`` value for policies that migrate threads: the slicc
#: parameter block (thresholds + pool factor), the work-stealing knobs and
#: the migration data prefetcher all change behaviour.
MIGRATION_FIELDS = frozenset(POLICY_GATED_FIELDS)


class SchedulingPolicy:
    """Base class for scheduling policies (see the module docstring).

    Subclasses override the class attributes and whichever hooks they
    need; every hook has a safe no-op default. ``bind`` is called exactly
    once, at the end of engine construction, with all machine state
    built — per-run policy state belongs there.
    """

    #: Registry key; also the ``SimConfig.variant`` spelling.
    name: ClassVar[str] = ""
    #: One-line description (rendered in README/--help style tables).
    description: ClassVar[str] = ""

    # -- capability flags ----------------------------------------------
    #: Thread-migration machinery: the 2N thread pool, idle-core work
    #: stealing and the migration data prefetcher.
    migrates: ClassVar[bool] = False
    #: Per-record SLICC machinery: per-core agents (MC/MSV/MTQ), bloom
    #: signatures and the inline migration evaluation in the replay loop.
    slicc_machinery: ClassVar[bool] = False
    #: STEPS-style same-core time multiplexing (per-core MSV dilution
    #: detector, context switches instead of migrations).
    time_multiplexes: ClassVar[bool] = False
    #: Type-aware placement: partition worker cores among transaction
    #: types (requires :meth:`make_type_source` to return a source).
    team_scheduling: ClassVar[bool] = False
    #: Dedicate the last core to preamble scouting (SLICC-Pp).
    scout_core: ClassVar[bool] = False
    #: Per-core next-line instruction prefetchers.
    nextline_prefetch: ClassVar[bool] = False
    #: The engine calls :meth:`quantum_end` after every quantum.
    quantum_hook: ClassVar[bool] = False

    #: SimConfig fields (from :data:`POLICY_GATED_FIELDS`) that influence
    #: results under this policy; see the module docstring.
    relevant_fields: ClassVar[frozenset] = frozenset()

    def __init__(self, config: "SimConfig") -> None:
        self.config = config
        self.engine: Optional["ReplayEngine"] = None

    # -- construction hooks --------------------------------------------

    @classmethod
    def l1i_params(cls, system: "SystemParams") -> Optional["CacheParams"]:
        """Override the L1-I geometry (PIF); None keeps ``system.l1i``."""
        return None

    def make_type_source(self):
        """Type source for team partitioning (None = type-oblivious)."""
        return None

    def bind(self, engine: "ReplayEngine") -> None:
        """Attach to a fully constructed engine; allocate per-run state."""
        self.engine = engine

    # -- decision hooks (scheduling events only, never per record) -----

    def quantum_end(self, core: int) -> Optional[int]:
        """Called after a quantum when the thread neither migrated nor
        completed (and only when :attr:`quantum_hook` is set). Return a
        target core to migrate the running thread there, or None."""
        return None

    def evaluate_migration(self, core: int, agent) -> bool:
        """SLICC-machinery policies: ask ``agent`` for a migration target
        and stage it in ``engine._pending_target``; True ends the
        quantum. The base class never migrates."""
        return False

    def context_switch(self, core: int) -> None:
        """Time-multiplexing policies: perform a same-core context
        switch (staged as target ``-1``)."""
        raise NotImplementedError(
            f"policy {self.name!r} does not time-multiplex"
        )

    # -- event callbacks -----------------------------------------------

    def on_thread_start(self, core: int) -> None:
        """A thread was dispatched on ``core`` (fresh or from a queue)."""

    def on_migrate(self, core: int, target: int) -> None:
        """The running thread of ``core`` is migrating to ``target``."""

    def on_complete(self, core: int) -> None:
        """The running thread of ``core`` finished all its records."""

    def on_steal(self, target: int) -> None:
        """Work stealing moved a queued thread to ``target`` and the
        ``steal_resets_mc`` knob is on — reset ``target``'s fill state."""

    # -- reporting -----------------------------------------------------

    def contribute_stats(self, result: "SimulationResult") -> None:
        """Add policy-specific counters to the result."""
