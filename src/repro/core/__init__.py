"""SLICC core: the paper's contribution.

The per-core agent (:class:`SliccAgent`) combines the three tracking
structures — miss counter, miss shift-vector, missed-tag queue — with the
bloom-filter cache signature to make the migrate/stay decisions of
Section 4. The two type-assignment mechanisms implement the SLICC-SW /
SLICC-Pp variants; the replay engine realises their teams as a static
partition of the cores (``ReplayEngine._build_partition``).
"""

from repro.core.agent import (
    AgentStats,
    MigrationDecision,
    MigrationReason,
    SliccAgent,
)
from repro.core.hw_cost import HardwareCost, slicc_hardware_cost
from repro.core.miss_counter import MissCounter
from repro.core.miss_shift_vector import MissShiftVector
from repro.core.missed_tag_queue import MissedTagQueue
from repro.core.scheduler import ThreadQueues
from repro.core.signature import BloomSignature
from repro.core.txn_types import PreambleTypeDetector, SoftwareTypeOracle

__all__ = [
    "AgentStats",
    "BloomSignature",
    "HardwareCost",
    "MigrationDecision",
    "MigrationReason",
    "MissCounter",
    "MissShiftVector",
    "MissedTagQueue",
    "PreambleTypeDetector",
    "SliccAgent",
    "SoftwareTypeOracle",
    "ThreadQueues",
    "slicc_hardware_cost",
]
