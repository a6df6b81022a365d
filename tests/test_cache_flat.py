"""Property test: the flat cache layout against a per-set reference.

``SetAssociativeCache`` keeps one flat tag list, one block-to-slot dict
and one per-set occupancy list, and the LRU family keeps one flat age
list (slot = ``set * assoc + way``). This drives random streams of
demand accesses (filling and bypassing), prefetch installs,
invalidations, probes and flushes through it and through a per-set
``OrderedDict`` reference that knows nothing of slots or ages, and
checks that the two agree on every outcome and on where each block sits,
and that the bloom signature's eviction rescan of a set's slice keeps
it equal to the cache contents.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.policies.lru import BIMODAL_EPSILON, PSEL_INIT, PSEL_MAX
from repro.core.signature import BloomSignature
from repro.params import CacheParams


class RefCache:
    """Per-set recency OrderedDicts (LRU first) plus explicit way lists."""

    def __init__(self, n_sets: int, assoc: int, policy: str) -> None:
        self.n_sets, self.assoc, self.policy = n_sets, assoc, policy
        self.order = [OrderedDict() for _ in range(n_sets)]
        self.ways = [[None] * assoc for _ in range(n_sets)]
        self.fills = 0
        self.psel = PSEL_INIT
        interval = 32 if n_sets >= 32 else max(2, n_sets)
        self.lru_leaders = {s for s in range(n_sets) if s % interval == 0}
        self.bip_leaders = {
            s for s in range(n_sets) if s % interval == interval // 2
        }

    def _insert_at_mru(self, s: int) -> bool:
        policy = self.policy
        if policy == "dip":
            if s in self.lru_leaders:
                policy = "lru"
            elif s in self.bip_leaders or self.psel >= PSEL_INIT:
                policy = "bip"
            else:
                policy = "lru"
        if policy in ("lru", "lip"):
            return policy == "lru"
        self.fills += 1
        return self.fills % BIMODAL_EPSILON == 0

    def fill(self, block: int):
        s = block % self.n_sets
        order, victim = self.order[s], None
        if len(order) < self.assoc:
            way = self.ways[s].index(None)
        else:
            victim, way = order.popitem(last=False)
        self.ways[s][way] = block
        order[block] = way
        if not self._insert_at_mru(s):
            order.move_to_end(block, last=False)
        return victim

    def access(self, block: int, fill: bool):
        s = block % self.n_sets
        if block in self.order[s]:
            self.order[s].move_to_end(block)
            return True, None
        if self.policy == "dip" and s in self.lru_leaders:
            self.psel = min(PSEL_MAX, self.psel + 1)
        elif self.policy == "dip" and s in self.bip_leaders:
            self.psel = max(0, self.psel - 1)
        return False, self.fill(block) if fill else None

    def flush(self) -> None:
        """Empty every set; the insertion counters and PSEL carry on."""
        self.order = [OrderedDict() for _ in range(self.n_sets)]
        self.ways = [[None] * self.assoc for _ in range(self.n_sets)]

    def invalidate(self, block: int) -> bool:
        s = block % self.n_sets
        way = self.order[s].pop(block, None)
        if way is not None:
            self.ways[s][way] = None
        return way is not None


OPS = ("access", "bypass", "install", "invalidate", "probe", "flush")


@st.composite
def scenarios(draw):
    n_sets = draw(st.sampled_from([1, 2, 2, 4, 4, 64]))
    assoc = draw(st.sampled_from([1, 2, 3, 4, 8]))
    policy = draw(st.sampled_from(["lru", "lip", "bip", "dip"]))
    # Enough blocks per set to force conflicts; weights keep flushes rare.
    blocks = st.integers(min_value=0, max_value=n_sets * (assoc + 2) - 1)
    ops = st.sampled_from(OPS[:5] * 8 + OPS[5:])
    stream = draw(st.lists(st.tuples(ops, blocks), min_size=50, max_size=400))
    bloom_bits = n_sets * draw(st.sampled_from([1, 2, 4]))
    return n_sets, assoc, policy, stream, bloom_bits


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_flat_cache_matches_per_set_reference(scenario):
    n_sets, assoc, policy, stream, bloom_bits = scenario
    params = CacheParams(size_bytes=n_sets * assoc * 64, assoc=assoc, policy=policy)
    cache = SetAssociativeCache(params)
    sig = BloomSignature(bloom_bits, cache)
    cache.on_evict = sig.on_evict
    ref = RefCache(n_sets, assoc, policy)
    for op, block in stream:
        if op in ("access", "bypass"):
            fill = op == "access"
            hit = cache.access_fast(block, fill=fill)
            assert (hit, cache.last_victim if not hit else None) == ref.access(
                block, fill
            )
            if not hit and fill:
                sig.insert(block)
        elif op == "install":
            resident = cache.probe(block)
            assert cache.install(block) == (None if resident else ref.fill(block))
            sig.insert(block)
        elif op == "invalidate":
            assert cache.invalidate(block) == ref.invalidate(block)
        elif op == "probe":
            assert cache.probe(block) == (block in ref.order[block % n_sets])
        else:
            cache.flush()
            ref.flush()
            sig.rebuild()  # flush() evicts silently
        # Where every block of the touched set sits: its slice of the flat
        # tag list is the reference's way list, the counters agree, and a
        # full set agrees on its next victim (the LRU end of the order).
        s = block % n_sets
        assert cache._tags[s * assoc : (s + 1) * assoc] == ref.ways[s]
        assert cache._occ[s] == len(ref.order[s])
        if len(ref.order[s]) == assoc:
            way = cache.policy.choose_victim(s)
            assert cache._tags[s * assoc + way] == next(iter(ref.order[s]))
        # The bloom signature is exact here (every fill is inserted): its
        # set bits are the filter indices of the resident blocks — no
        # false negatives, and evictions clear every stale bit.
        indices = {b % bloom_bits for order in ref.order for b in order}
        assert {i for i in range(bloom_bits) if sig.probe(i)} == indices
    assert cache._tags == [way for ways in ref.ways for way in ways]
    assert cache._occ == [len(order) for order in ref.order]
    resident = {b for order in ref.order for b in order}
    assert set(cache.resident_blocks()) == resident
    assert cache.occupancy() == len(resident)
    for s in range(n_sets):
        assert cache.blocks_in_set(s) == [b for b in ref.ways[s] if b is not None]
