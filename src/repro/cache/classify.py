"""Three-C miss classification (Hill & Smith, IEEE ToC 1989).

Figure 1 of the paper breaks L1 misses into *compulsory*, *capacity* and
*conflict*. The classic definitions:

* **compulsory** — first reference ever to the block;
* **capacity** — would also miss in a fully-associative LRU cache of the
  same capacity;
* **conflict** — hits in the fully-associative shadow but missed in the
  real set-associative cache (i.e. caused purely by limited associativity).

``MissClassifier`` runs the fully-associative shadow alongside the real
cache. It must observe *every* access (hits too) so the shadow's recency
state stays faithful.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum


class MissClass(Enum):
    """Category of one cache miss."""

    COMPULSORY = "compulsory"
    CAPACITY = "capacity"
    CONFLICT = "conflict"


class MissClassifier:
    """Classifies misses of a cache with ``capacity_blocks`` lines.

    Usage: call :meth:`observe` for every access with the real cache's
    hit/miss outcome; it returns the miss class (or ``None`` on a hit) and
    keeps its own counters. A run with ``SimConfig.collect_miss_classes``
    replays through the engine's reference path, which calls
    :meth:`observe` on every L1 access.
    """

    __slots__ = ("capacity_blocks", "_seen", "_shadow", "counts", "accesses")

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive")
        self.capacity_blocks = capacity_blocks
        self._seen: set[int] = set()
        self._shadow: OrderedDict[int, None] = OrderedDict()
        self.counts: dict[MissClass, int] = {c: 0 for c in MissClass}
        self.accesses = 0

    def observe(self, block: int, hit: bool) -> MissClass | None:
        """Record one access; return the miss class (``None`` if a hit)."""
        self.accesses += 1
        shadow_hit = block in self._shadow
        if shadow_hit:
            self._shadow.move_to_end(block)
        else:
            self._shadow[block] = None
            if len(self._shadow) > self.capacity_blocks:
                self._shadow.popitem(last=False)
        if hit:
            return None
        if block not in self._seen:
            self._seen.add(block)
            miss_class = MissClass.COMPULSORY
        elif shadow_hit:
            miss_class = MissClass.CONFLICT
        else:
            miss_class = MissClass.CAPACITY
        self.counts[miss_class] += 1
        return miss_class

    def mpki(self, miss_class: MissClass, instructions: int) -> float:
        """Misses-per-kilo-instruction for one class."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.counts[miss_class] / instructions

    @property
    def total_misses(self) -> int:
        """Sum over all three classes."""
        return sum(self.counts.values())
