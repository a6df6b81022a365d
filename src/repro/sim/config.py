"""The configuration of one simulation run.

Kept apart from :mod:`repro.sim.engine` so that keying specs, reading a
store and writing reports can name a :class:`SimConfig` without loading
the replay engine. The engine imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.params import SliccParams, SystemParams
from repro.sched import has_policy, policy_names


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    The figure registry leaves four options at their defaults:
    ``collect_miss_classes``, ``model_l2_capacity``, ``data_prefetch_n``
    and the L1s' ``lru`` replacement (``system.l1i.policy``,
    ``system.l1d.policy``). A run that changes any of them replays its
    records through the engine's reference path instead of a generated
    record arm, 1.3-2.1x slower (:func:`repro.sim.specialize.kernel_spec`).
    """

    variant: str = "base"
    system: SystemParams = field(default_factory=SystemParams)
    slicc: SliccParams = field(default_factory=SliccParams)
    quantum: int = 50
    collect_miss_classes: bool = False
    #: Cycles between successive thread arrivals. ``None`` derives a
    #: throughput-matched spacing (mean thread service time / cores) so
    #: the machine runs at steady state with threads at *different phases*
    #: of their transactions — the regime of the paper's 1K-task stream.
    #: 0 makes all threads available at cycle zero (synchronised start).
    arrival_spacing: Optional[int] = None
    #: Idle-core work stealing in SLICC variants (see
    #: :meth:`ReplayEngine._rebalance`). Exposed for the ablation bench.
    work_stealing: bool = True
    #: Minimum queue depth a victim core must have before an idle core
    #: steals from it. Higher values trade utilisation for segment
    #: stability (a stolen thread replicates its segment at the idle
    #: core, evicting whatever lived there).
    steal_min_depth: int = 3
    #: Reset the stolen-to core's MC so the stolen thread *replicates*
    #: the hot segment there (spreading queue load over two copies).
    #: False keeps the idle core's cache frozen: the stolen thread runs
    #: bypassed until a segment match pulls it back into the collective.
    #: The default False preserves assembled segments; the ablation bench
    #: quantifies both policies.
    steal_resets_mc: bool = False
    #: Migration data prefetcher (Section 5.5): ship the last n data
    #: block tags with a migrating thread. 0 disables (the default — the
    #: paper found the mitigation unhelpful; the bench reproduces that).
    data_prefetch_n: int = 0
    #: Model the banked NUCA L2's finite capacity and bank distances
    #: (Table 2) instead of the infinite-L2 approximation. Slower; only
    #: changes results when a workload's footprint pressures 16MB.
    model_l2_capacity: bool = False

    def __post_init__(self) -> None:
        if not has_policy(self.variant):
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; known: {policy_names()}"
            )
        if self.quantum <= 0:
            raise ConfigurationError("quantum must be positive")
        if self.steal_min_depth < 1:
            raise ConfigurationError("steal_min_depth must be at least 1")
