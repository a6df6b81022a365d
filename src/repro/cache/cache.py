"""Set-associative cache model.

Addresses are **block ids** (byte address >> 6); the caller strips the
block offset once when generating traces, which keeps the hot loop free of
shifts. The set index is the low bits of the block id and the stored key
is the full block id, so aliasing is impossible regardless of tag width.

The model is purely functional w.r.t. contents — there is no notion of
dirtiness or writeback traffic because the paper's experiments only count
misses, evictions and invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.cache.policies import make_policy
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.params import CacheParams


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache reference.

    Only the convenience :meth:`SetAssociativeCache.access` wrapper
    allocates these; the replay hot path uses the allocation-free
    :meth:`SetAssociativeCache.access_fast` instead.

    Attributes:
        hit: whether the reference hit.
        victim: block id evicted to make room, or ``None`` when the fill
            landed in an empty way (or the reference hit).
    """

    hit: bool
    victim: Optional[int] = None


#: Signature of an eviction observer: ``callback(evicted_block_id)``.
EvictionCallback = Callable[[int], None]


class SetAssociativeCache:
    """A single set-associative cache with a pluggable replacement policy.

    Args:
        params: geometry/latency/policy bundle.
        name: label used in reports (e.g. ``"core3.l1i"``).
        on_evict: optional observer invoked with every evicted block id —
            the SLICC bloom signature and the coherence directory hook in
            here.
    """

    def __init__(
        self,
        params: CacheParams,
        name: str = "cache",
        on_evict: Optional[EvictionCallback] = None,
    ) -> None:
        self.params = params
        self.name = name
        self.n_sets = params.n_sets
        self.assoc = params.assoc
        self._set_mask = self.n_sets - 1
        # Flat per-cache state (one list or dict per cache, never one per
        # set): way ``w`` of set ``s`` lives at *slot* ``s * assoc + w``.
        # ``_tags[slot]`` is the resident block id (``None`` when empty),
        # ``_index`` maps every resident block to its slot, and ``_occ``
        # counts the valid ways of each set.
        self._tags: list[Optional[int]] = [None] * (self.n_sets * self.assoc)
        self._index: dict[int, int] = {}
        self._occ: list[int] = [0] * self.n_sets
        self.policy = make_policy(params.policy, self.n_sets, self.assoc)
        self._policy_tracks_invalidate = (
            type(self.policy).on_invalidate
            is not ReplacementPolicy.on_invalidate
        )
        self.stats = CacheStats()
        self.on_evict = on_evict
        #: Block evicted by the most recent missing :meth:`access_fast`
        #: (``None`` when the fill landed in an empty way or was
        #: bypassed). Only meaningful immediately after a miss — the rare
        #: consumers that care read it there; the common path never
        #: touches it.
        self.last_victim: Optional[int] = None

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def access_fast(self, block: int, fill: bool = True) -> bool:
        """Reference ``block``; fill it on a miss unless ``fill`` is False.

        Returns True on a hit. This is the allocation-free hot path: the
        evicted block (needed by almost nobody — evictions are delivered
        through ``on_evict``) is parked in :attr:`last_victim` instead of
        a per-access result object.

        ``fill=False`` is the bypass path: the reference is counted and
        served (from L2/memory, as far as timing is concerned) but does
        not displace resident blocks. SLICC uses it while a cache is
        "full" of a useful segment so that threads passing through on
        their way to another core cannot erode the assembled collective.
        """
        set_idx = block & self._set_mask
        self.stats.accesses += 1
        slot = self._index.get(block)
        if slot is not None:
            self.policy.on_hit(set_idx, slot - set_idx * self.assoc)
            return True
        self.stats.misses += 1
        self.policy.on_miss(set_idx)
        if fill:
            self.last_victim = self._fill(set_idx, block)
        else:
            self.last_victim = None
        return False

    def access(self, block: int, fill: bool = True) -> AccessResult:
        """Allocating wrapper around :meth:`access_fast` (API compat)."""
        if self.access_fast(block, fill=fill):
            return AccessResult(hit=True)
        return AccessResult(hit=False, victim=self.last_victim)

    def _fill(self, set_idx: int, block: int) -> Optional[int]:
        """Install ``block`` into ``set_idx``; return the evicted block."""
        tags = self._tags
        base = set_idx * self.assoc
        victim_block: Optional[int] = None
        if self._occ[set_idx] < self.assoc:
            # First empty way of the set (the slice holds one: occ < assoc).
            way = tags.index(None, base) - base
            self._occ[set_idx] += 1
        else:
            way = self.policy.choose_victim(set_idx)
            victim_block = tags[base + way]
            assert victim_block is not None
            del self._index[victim_block]
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim_block)
        tags[base + way] = block
        self._index[block] = base + way
        self.policy.on_fill(set_idx, way)
        return victim_block

    # ------------------------------------------------------------------
    # Side-channel operations (prefetch, coherence, search)
    # ------------------------------------------------------------------

    def probe(self, block: int) -> bool:
        """Non-modifying residency test (used by remote segment search)."""
        return block in self._index

    def install(self, block: int) -> Optional[int]:
        """Fill ``block`` without counting a demand access (prefetch path).

        Returns the victim block, if any. Installing a resident block is a
        no-op returning ``None``.
        """
        if block in self._index:
            return None
        self.stats.prefetch_fills += 1
        return self._fill(block & self._set_mask, block)

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if resident (coherence). Returns True if removed."""
        slot = self._index.pop(block, None)
        if slot is None:
            return False
        set_idx = block & self._set_mask
        self._tags[slot] = None
        self._occ[set_idx] -= 1
        if self._policy_tracks_invalidate:
            self.policy.on_invalidate(set_idx, slot - set_idx * self.assoc)
        self.stats.invalidations += 1
        if self.on_evict is not None:
            self.on_evict(block)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over every resident block id (order unspecified)."""
        return iter(self._index)

    def blocks_in_set(self, set_idx: int) -> list[int]:
        """Resident block ids of one set, in way order."""
        base = set_idx * self.assoc
        return [b for b in self._tags[base : base + self.assoc] if b is not None]

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._index)

    def flush(self) -> None:
        """Empty the cache (does not reset stats)."""
        assoc = self.assoc
        for slot in self._index.values():
            self._tags[slot] = None
            self.policy.on_invalidate(slot // assoc, slot % assoc)
        self._index.clear()
        self._occ[:] = [0] * self.n_sets

    def __contains__(self, block: int) -> bool:
        return self.probe(block)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeCache(name={self.name!r}, "
            f"{self.params.size_bytes // 1024}KB, {self.assoc}-way, "
            f"policy={self.params.policy})"
        )
