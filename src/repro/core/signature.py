"""Partial-address bloom-filter cache signature (Section 4.2.3, Figure 9).

Each core maintains a bloom filter summarising its L1-I contents so that
remote segment searches can be answered without stealing cache ports. The
paper uses the partial-address filter of Peir et al. with eviction
support: the filter index is the low ``log2(bits)`` bits of the block id.
Because the filter index embeds the cache set index (filter bits >= set
count), two blocks can only collide in the filter if they live in the
same cache set — so on an eviction, rescanning just that set suffices to
decide whether the bit can be cleared.

The filter is a *superset* signature: probes can give false positives
(another same-set block shares the filter index) but never false
negatives, which is the safe direction for a migration predictor.

Storage is *transposed* across cores: all cores' filters share one
:class:`SignatureSet`, whose ``masks[idx]`` int holds bit *c* when core
*c*'s filter has position ``idx`` set. A per-core probe tests one bit of
one int — exactly the old bytearray semantics — while the engine's remote
segment search (``Machine.presence_mask``) collapses from ``n_cores``
probes per miss to a single list lookup plus two AND operations, with
identical false-positive behaviour because the per-core bits are the very
same state the per-core probes consult.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.cache import SetAssociativeCache


class SignatureSet:
    """Transposed storage for the bloom filters of many cores.

    ``masks[idx]`` is an integer core-bitmask: bit *c* is set iff core
    *c*'s filter has bit ``idx`` set. ``masks[block & (bits - 1)]`` is
    therefore the fused "which cores (probably) cache this block" answer.
    """

    __slots__ = ("bits", "masks")

    def __init__(self, bits: int) -> None:
        if bits <= 0 or bits & (bits - 1) != 0:
            raise ConfigurationError("bloom bits must be a positive power of two")
        self.bits = bits
        self.masks: list[int] = [0] * bits


class BloomSignature:
    """Partial-address bloom filter mirroring one L1-I cache's contents.

    Wire it to a cache by passing :meth:`on_evict` as the cache's eviction
    callback and calling :meth:`insert` after each fill.

    Args:
        bits: filter positions (power of two, >= cache sets).
        cache: the L1-I this signature mirrors.
        shared: transposed store to join; a standalone one-core store is
            created when omitted (tests, single-filter experiments).
        core: this filter's bit position within the shared store.
    """

    __slots__ = ("bits", "_mask", "_set", "_bit", "_cache")

    def __init__(
        self,
        bits: int,
        cache: "SetAssociativeCache",
        shared: Optional[SignatureSet] = None,
        core: int = 0,
    ) -> None:
        if shared is not None and shared.bits != bits:
            raise ConfigurationError(
                f"signature bits ({bits}) disagree with the shared "
                f"SignatureSet ({shared.bits})"
            )
        if bits < cache.n_sets:
            raise ConfigurationError(
                f"bloom bits ({bits}) must be >= cache sets ({cache.n_sets}) "
                "for per-set eviction support"
            )
        self.bits = bits
        self._mask = bits - 1
        self._set = shared if shared is not None else SignatureSet(bits)
        self._bit = 1 << core
        self._cache = cache

    def probe(self, block: int) -> bool:
        """Is ``block`` (probably) cached? No false negatives."""
        return bool(self._set.masks[block & self._mask] & self._bit)

    def insert(self, block: int) -> None:
        """Record that ``block`` was installed in the cache."""
        self._set.masks[block & self._mask] |= self._bit

    def on_evict(self, block: int) -> None:
        """Handle an eviction: clear the bit unless a same-set survivor
        shares the filter index (the partial-address collision case)."""
        mask = self._mask
        idx = block & mask
        cache = self._cache
        # Scan the set's slice of the flat tag list directly: empty ways
        # hold None, and the evicted block may still sit in its way.
        base = (block & cache._set_mask) * cache.assoc
        for other in cache._tags[base : base + cache.assoc]:
            if other is not None and other != block and other & mask == idx:
                return
        self._set.masks[idx] &= ~self._bit

    def rebuild(self) -> None:
        """Recompute the filter from the cache's exact contents."""
        masks = self._set.masks
        clear = ~self._bit
        for i in range(self.bits):
            masks[i] &= clear
        for block in self._cache.resident_blocks():
            self.insert(block)

    def agreement_check(self, block: int) -> bool:
        """True when filter and cache agree on residency of ``block``.

        This is the accuracy metric of Figure 9: an access is *accurate*
        if the bloom filter and the cache agree on hit/miss.
        """
        return self.probe(block) == self._cache.probe(block)

    def popcount(self) -> int:
        """Number of set bits (diagnostics)."""
        bit = self._bit
        return sum(1 for mask in self._set.masks if mask & bit)
