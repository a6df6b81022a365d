"""Next-line instruction prefetcher (Figure 11's middle baseline).

On every L1-I demand miss for block *b*, the prefetcher also fetches
*b+1* into the cache. Prefetches are timely only to a degree: a block
consumed immediately after its trigger miss still pays
``prefetch_late_fraction`` of the downstream latency. Sequential-run
structure in the instruction stream determines coverage — jumps between
runs (function calls, taken branches) are never covered, which is why
next-line trails both SLICC and PIF on OLTP.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache


class NextLinePrefetcher:
    """Per-core next-line prefetcher state.

    The whole hot state is the ``_pending`` set; the generated replay
    kernel drives it directly (membership test on hits, discard on
    evictions, add on issued prefetches) and batches the
    ``issued``/``useful`` counters per quantum. The methods below serve
    the engine's reference path (:func:`repro.sim.specialize.kernel_spec`
    says when it runs) and the unit tests; the golden pins hold both
    paths byte-identical.
    """

    __slots__ = ("_cache", "_pending", "issued", "useful")

    def __init__(self, cache: SetAssociativeCache) -> None:
        self._cache = cache
        #: Blocks prefetched but not yet demanded (in flight / unconsumed).
        self._pending: set[int] = set()
        self.issued = 0
        self.useful = 0

    def on_demand_miss(self, block: int) -> int | None:
        """Demand miss for ``block``: prefetch ``block + 1``.

        Returns the prefetched block id when a prefetch was issued (the
        engine then touches the L2 for it), else None.
        """
        nxt = block + 1
        if self._cache.probe(nxt):
            return None
        self._cache.install(nxt)
        self._pending.add(nxt)
        self.issued += 1
        return nxt

    def consume_if_prefetched(self, block: int) -> bool:
        """Demand access hit ``block``: was it a not-yet-consumed prefetch?

        True means the access should pay the late-prefetch residual
        instead of a full hit's zero penalty.
        """
        if block in self._pending:
            self._pending.discard(block)
            self.useful += 1
            return True
        return False

    def on_evict(self, block: int) -> None:
        """A block left the cache; a pending prefetch for it is dead."""
        self._pending.discard(block)

    @property
    def accuracy(self) -> float:
        """Useful prefetches / issued prefetches."""
        return self.useful / self.issued if self.issued else 0.0
