"""Shared NUCA L2 model (Table 2: 1MB per core, 16 banks, 16-cycle hit).

The engine's default L2 model is "effectively infinite" — correct for
every experiment in the paper because the measured footprints never
approach 16MB (DESIGN.md §3). ``NucaL2`` is the optional higher-fidelity
substrate: a banked shared cache where a request from core *c* to bank
*b* pays the base hit latency plus the torus round-trip, so L1 misses to
distant banks cost more — the non-uniformity that gives NUCA its name.

Bank interleaving is by block id (low bits), the standard address-
interleaved organisation that spreads consecutive lines across banks.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError
from repro.interconnect.torus import Torus2D
from repro.params import CacheParams


class NucaL2:
    """Banked, address-interleaved shared L2 with distance-aware latency.

    A run with ``SimConfig.model_l2_capacity`` builds one and replays
    through the engine's reference path, which calls :meth:`access` on
    every L1 miss; no generated kernel inlines it.
    """

    def __init__(
        self,
        torus: Torus2D,
        mb_per_core: int = 1,
        n_banks: int = 16,
        assoc: int = 16,
        hit_latency: int = 16,
    ) -> None:
        if n_banks != torus.n_nodes:
            raise ConfigurationError(
                f"one bank per node expected: {n_banks} banks vs "
                f"{torus.n_nodes} nodes"
            )
        total_bytes = mb_per_core * 1024 * 1024 * torus.n_nodes
        bank_bytes = total_bytes // n_banks
        params = CacheParams(
            size_bytes=bank_bytes,
            assoc=assoc,
            hit_latency=hit_latency,
            policy="lru",
        )
        self.torus = torus
        self.n_banks = n_banks
        self.hit_latency = hit_latency
        self._banks = [
            SetAssociativeCache(params, name=f"l2.bank{b}")
            for b in range(n_banks)
        ]

    def bank_of(self, block: int) -> int:
        """Home bank of a block (address-interleaved)."""
        return block % self.n_banks

    def access(self, core: int, block: int) -> tuple[bool, int]:
        """Look up ``block`` on behalf of ``core``.

        Returns ``(hit, latency_cycles)`` where the latency covers the
        bank access plus the torus round trip; on a miss the block is
        installed (the L2 is the last on-chip level, so an L1 miss always
        allocates here on its way in from memory).
        """
        bank = self.bank_of(block)
        # Shift block id so the bank-select bits do not alias set bits.
        local = block // self.n_banks
        hit = self._banks[bank].access_fast(local)
        round_trip = 2 * self.torus.latency(core, bank)
        return hit, self.hit_latency + round_trip

    def probe(self, block: int) -> bool:
        """Residency test without state change."""
        return self._banks[self.bank_of(block)].probe(block // self.n_banks)

    def stats(self) -> CacheStats:
        """Aggregate stats across banks."""
        total = CacheStats()
        for bank in self._banks:
            total = total.merged(bank.stats)
        return total

    @property
    def capacity_blocks(self) -> int:
        """Total L2 lines."""
        return sum(b.params.n_blocks for b in self._banks)
