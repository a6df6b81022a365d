"""LRU and the LRU-insertion-point family (LIP, BIP, DIP).

All four policies share one mechanism: a per-set recency order whose
least-recent end is the eviction candidate. They differ only in where a
newly filled block is inserted:

* **LRU** inserts at the MRU end (classic).
* **LIP** (LRU Insertion Policy) inserts at the LRU end, so a block must
  earn a hit before it is retained (Qureshi et al., ISCA'07).
* **BIP** (Bimodal) inserts at MRU with low probability (1/32) and at LRU
  otherwise, letting a trickle of the working set stick.
* **DIP** (Dynamic) set-duels LRU against BIP with a saturating PSEL
  counter and applies the winner in follower sets.

The bimodal "probability" is implemented as a deterministic 1-in-32
counter so simulations are exactly reproducible.

Implementation note — age counters, not lists. The recency order is kept
as one monotonic age per way: an MRU-end touch assigns the set's
next-higher age, an LRU-end insertion the next-lower one, and the victim
is the minimum-age way. Ages assigned this way are strictly ordered
exactly like positions in an explicit recency list (every assignment goes
strictly above or strictly below all live ages, and removals never
reorder survivors), so hit/fill/victim behaviour is bit-identical to the
list form — without its O(assoc) ``list.remove`` on every single hit,
which dominated the replay profile. Invalidated ways keep a stale age:
harmless, because the cache fills empty ways before consulting
:meth:`choose_victim` and every fill assigns a fresh age.

The ages of all sets share one flat list, set ``s`` owning the slice
``[s * assoc, (s + 1) * assoc)``. Nothing crosses a slice boundary: ages
are only compared within one set's slice (:meth:`choose_victim` takes
the minimum of that slice and the first way holding it), and the
``hi``/``lo`` watermarks stay per set, so every set sees exactly the age
sequence it saw with its own list.
"""

from __future__ import annotations

from repro.cache.policies.base import ReplacementPolicy, register_policy

#: 1-in-N chance of an MRU insertion for bimodal policies.
BIMODAL_EPSILON = 32

#: PSEL is a 10-bit saturating counter as in the DIP paper.
PSEL_MAX = 1023
PSEL_INIT = 512


@register_policy
class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement."""

    name = "lru"

    def __init__(self, n_sets: int, assoc: int) -> None:
        super().__init__(n_sets, assoc)
        #: One flat age list: way ``w`` of set ``s`` at ``s * assoc + w``
        #: (the cache's slot numbering, so the engine indexes it by slot).
        self._age: list[int] = [0] * (n_sets * assoc)
        #: Per-set high-water age (MRU-end assignments count up from 0).
        self._hi = [0] * n_sets
        #: Per-set low-water age (LRU-end assignments count down from 0).
        self._lo = [0] * n_sets

    def on_hit(self, set_idx: int, way: int) -> None:
        hi = self._hi[set_idx] + 1
        self._hi[set_idx] = hi
        self._age[set_idx * self.assoc + way] = hi

    def on_fill(self, set_idx: int, way: int) -> None:
        self._insert(set_idx, way)

    def _insert(self, set_idx: int, way: int) -> None:
        """Insert a fresh block at the MRU end (subclasses override)."""
        hi = self._hi[set_idx] + 1
        self._hi[set_idx] = hi
        self._age[set_idx * self.assoc + way] = hi

    def _insert_lru(self, set_idx: int, way: int) -> None:
        """Insert a fresh block at the LRU end (next eviction candidate)."""
        lo = self._lo[set_idx] - 1
        self._lo[set_idx] = lo
        self._age[set_idx * self.assoc + way] = lo

    def choose_victim(self, set_idx: int) -> int:
        base = set_idx * self.assoc
        ages = self._age
        return ages.index(min(ages[base : base + self.assoc]), base) - base

    def recency_order(self, set_idx: int) -> list[int]:
        """Ways of one set ordered LRU-first (tests and diagnostics)."""
        base = set_idx * self.assoc
        ages = self._age[base : base + self.assoc]
        return sorted(range(self.assoc), key=ages.__getitem__)


@register_policy
class LipPolicy(LruPolicy):
    """LRU Insertion Policy: fills land at the LRU position."""

    name = "lip"

    def _insert(self, set_idx: int, way: int) -> None:
        self._insert_lru(set_idx, way)


@register_policy
class BipPolicy(LruPolicy):
    """Bimodal Insertion Policy: MRU fill once every 32 fills."""

    name = "bip"

    def __init__(self, n_sets: int, assoc: int) -> None:
        super().__init__(n_sets, assoc)
        self._fill_count = 0

    def _insert(self, set_idx: int, way: int) -> None:
        self._fill_count += 1
        if self._fill_count % BIMODAL_EPSILON == 0:
            super()._insert(set_idx, way)
        else:
            self._insert_lru(set_idx, way)


@register_policy
class DipPolicy(LruPolicy):
    """Dynamic Insertion Policy: set-duels LRU vs BIP.

    Sets with index ``i % 32 == 0`` always behave as LRU leaders, sets with
    ``i % 32 == 16`` as BIP leaders; the rest follow the policy currently
    winning the duel. A miss in an LRU leader nudges PSEL towards BIP and
    vice versa.
    """

    name = "dip"

    def __init__(self, n_sets: int, assoc: int) -> None:
        super().__init__(n_sets, assoc)
        self._psel = PSEL_INIT
        self._fill_count = 0
        interval = 32 if n_sets >= 32 else max(2, n_sets)
        self._leader_lru = {i for i in range(n_sets) if i % interval == 0}
        self._leader_bip = {
            i for i in range(n_sets) if i % interval == interval // 2
        }

    def on_miss(self, set_idx: int) -> None:
        if set_idx in self._leader_lru:
            self._psel = min(PSEL_MAX, self._psel + 1)
        elif set_idx in self._leader_bip:
            self._psel = max(0, self._psel - 1)

    def _use_bip(self, set_idx: int) -> bool:
        if set_idx in self._leader_lru:
            return False
        if set_idx in self._leader_bip:
            return True
        return self._psel >= PSEL_INIT

    def _insert(self, set_idx: int, way: int) -> None:
        if not self._use_bip(set_idx):
            super()._insert(set_idx, way)
            return
        self._fill_count += 1
        if self._fill_count % BIMODAL_EPSILON == 0:
            super()._insert(set_idx, way)
        else:
            self._insert_lru(set_idx, way)
