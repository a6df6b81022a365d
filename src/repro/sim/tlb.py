"""Tiny fully-associative LRU TLB model.

Only used for the Section 5.5 side statistics (D-TLB misses rise ~8-11%
under migration, I-TLB stays flat). Pages are 4KB = 64 cache blocks.
"""

from __future__ import annotations

from collections import OrderedDict

#: log2(blocks per 4KB page).
PAGE_SHIFT = 6


class Tlb:
    """Fully-associative LRU TLB with ``entries`` slots.

    ``__slots__`` keeps the per-access attribute traffic cheap — the
    replay engine's inlined fast path also reaches straight into
    :attr:`_map` for the hit case, so the OrderedDict is the whole model.
    """

    __slots__ = ("entries", "_map", "accesses", "misses")

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: OrderedDict[int, None] = OrderedDict()
        self.accesses = 0
        self.misses = 0

    def access(self, block: int) -> bool:
        """Translate the page of ``block``; returns True on a TLB hit."""
        page = block >> PAGE_SHIFT
        self.accesses += 1
        if page in self._map:
            self._map.move_to_end(page)
            return True
        self.misses += 1
        self._map[page] = None
        if len(self._map) > self.entries:
            self._map.popitem(last=False)
        return False

    def mpki(self, instructions: int) -> float:
        """TLB misses per kilo-instruction."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions
