"""Simulation parameters mirroring Tables 1 and 2 of the SLICC paper.

Three dataclasses carry all configuration:

* :class:`CacheParams` — geometry and latency of one cache level.
* :class:`SystemParams` — the machine of Table 2 (16 OoO cores, private
  32KB L1s, shared NUCA L2, 4x4 torus, DDR3 memory) plus the timing
  constants our simplified stall-cycle model needs.
* :class:`SliccParams` — the three SLICC thresholds (``fill_up_t``,
  ``matched_t``, ``dilution_t``) and the bloom-filter signature size,
  with the paper's chosen operating point as defaults (Section 5.2).

``ScalePreset`` shrinks workloads so unit tests run in milliseconds while
benchmarks use a size large enough for the paper's effects to be visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.errors import ConfigurationError

#: Cache block size used throughout the paper (bytes).
BLOCK_SIZE = 64

#: log2(BLOCK_SIZE); block id = byte address >> BLOCK_SHIFT.
BLOCK_SHIFT = 6

#: Names of the replacement policies ``CacheParams.policy`` accepts. The
#: registry in :mod:`repro.cache.policies` defines them; a test keeps
#: the two in step, so this module need not import the cache package.
REPLACEMENT_POLICIES = ("lru", "lip", "bip", "dip", "srrip", "brrip", "drrip")


class ScalePreset(Enum):
    """Workload scale presets.

    ``SMOKE`` is for unit tests (seconds), ``CI`` for the benchmark harness
    (minutes for the full suite), ``PAPER`` approaches the paper's 1K tasks
    and is intended for unattended runs.
    """

    SMOKE = "smoke"
    CI = "ci"
    PAPER = "paper"


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency for a single cache.

    Attributes:
        size_bytes: total capacity in bytes.
        assoc: number of ways per set.
        block_size: line size in bytes; must be :data:`BLOCK_SIZE`,
            the block every trace record addresses.
        hit_latency: access latency in cycles (load-to-use).
        policy: replacement policy name, one of
            :data:`REPLACEMENT_POLICIES`.
    """

    size_bytes: int = 32 * 1024
    assoc: int = 8
    block_size: int = BLOCK_SIZE
    hit_latency: int = 3
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0:
            raise ConfigurationError(
                f"cache parameters must be positive: {self}"
            )
        if self.block_size != BLOCK_SIZE:
            # Trace records name 64-byte blocks: another line size would
            # silently model a cache of a different capacity.
            raise ConfigurationError(
                f"block_size must be {BLOCK_SIZE}, got {self.block_size}"
            )
        if self.hit_latency < 0:
            raise ConfigurationError(
                f"hit_latency must not be negative, got {self.hit_latency}"
            )
        if self.policy not in REPLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown replacement policy {self.policy!r}; known: "
                f"{sorted(REPLACEMENT_POLICIES)}"
            )
        if self.size_bytes % (self.block_size * self.assoc) != 0:
            raise ConfigurationError(
                f"size {self.size_bytes} not divisible by "
                f"block_size*assoc = {self.block_size * self.assoc}"
            )
        n_sets = self.size_bytes // (self.block_size * self.assoc)
        if n_sets & (n_sets - 1) != 0:
            raise ConfigurationError(
                f"number of sets must be a power of two, got {n_sets}"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.block_size * self.assoc)

    @property
    def n_blocks(self) -> int:
        """Total number of cache lines (used for fill-up_t defaults)."""
        return self.size_bytes // self.block_size

    def scaled(self, size_bytes: int, hit_latency: int | None = None) -> "CacheParams":
        """Return a copy with a new size (and optionally latency).

        Used by the Figure 1 cache-size sweep and the PIF upper-bound model
        (512KB capacity at 32KB latency).
        """
        if hit_latency is None:
            hit_latency = self.hit_latency
        return replace(self, size_bytes=size_bytes, hit_latency=hit_latency)


#: The cycle constants of :class:`SystemParams`: zero is legal, a
#: negative value is not.
_CYCLE_FIELDS = (
    "l2_hit_latency",
    "memory_latency",
    "base_cycles_per_iblock",
    "frontend_refill_cycles",
    "tlb_miss_cycles",
    "migration_context_cycles",
    "migration_hop_cycles",
    "migration_refill_cycles",
)


@dataclass(frozen=True)
class SystemParams:
    """The Table 2 machine plus stall-model constants.

    The paper simulates 16 out-of-order cores on a 4x4 torus with private
    32KB L1s and a 16MB shared NUCA L2. Our replay engine charges stall
    cycles per miss instead of modelling the pipeline; the overlap factors
    encode that out-of-order execution hides data-miss latency far better
    than fetch-miss latency (Sections 3.3 and 5.6).
    """

    n_cores: int = 16
    torus_width: int = 4
    l1i: CacheParams = field(default_factory=CacheParams)
    l1d: CacheParams = field(default_factory=CacheParams)
    l2_hit_latency: int = 16
    memory_latency: int = 120

    #: Retired instructions represented by one instruction-block record.
    instructions_per_iblock: int = 12
    #: Base cycles charged per instruction-block record (fetch+execute).
    base_cycles_per_iblock: int = 4
    #: Fraction of a data-load miss penalty that stalls the core.
    load_overlap: float = 0.35
    #: Fraction of a data-store miss penalty that stalls the core.
    store_overlap: float = 0.15
    #: Extra front-end refill cycles charged on every L1-I miss (fetch
    #: stalls cannot be hidden by the OoO window the way data stalls can).
    frontend_refill_cycles: int = 10
    #: Fraction of the miss penalty still paid when a next-line prefetch
    #: arrives late (prefetch issued on the trigger miss, used immediately).
    prefetch_late_fraction: float = 0.5
    #: Cycles charged on a TLB miss (page-table walk).
    tlb_miss_cycles: int = 30
    #: Cycles to save+restore a thread context through the nearest L2 bank.
    migration_context_cycles: int = 2 * 16 + 32
    #: Extra cycles per torus hop during a migration.
    migration_hop_cycles: int = 1
    #: Pipeline refill cycles at the destination core after a migration.
    migration_refill_cycles: int = 20

    def __post_init__(self) -> None:
        if self.torus_width < 1:
            raise ConfigurationError(
                f"torus_width must be at least 1, got {self.torus_width}"
            )
        if self.torus_width * self.torus_width != self.n_cores:
            raise ConfigurationError(
                f"n_cores ({self.n_cores}) must equal torus_width^2 "
                f"({self.torus_width}^2)"
            )
        if self.instructions_per_iblock < 1:
            raise ConfigurationError("instructions_per_iblock must be at least 1")
        for name in _CYCLE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must not be negative, got {getattr(self, name)}"
                )
        for name in ("load_overlap", "store_overlap", "prefetch_late_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class SliccParams:
    """SLICC thresholds and signature configuration (Sections 4.2, 5.2).

    Defaults are the operating point the paper settles on: ``fill_up_t`` =
    256 (half the 512 blocks of a 32KB L1-I), ``matched_t`` = 4,
    ``dilution_t`` = 10, and a 2K-bit partial-address bloom filter.
    """

    fill_up_t: int = 256
    matched_t: int = 4
    dilution_t: int = 10
    msv_window: int = 100
    bloom_bits: int = 2048
    #: Thread pool size multiplier: SLICC manages up to 2N threads (5.1).
    thread_pool_factor: int = 2

    def __post_init__(self) -> None:
        if self.fill_up_t <= 0:
            raise ConfigurationError("fill_up_t must be positive")
        if self.matched_t <= 0:
            raise ConfigurationError("matched_t must be positive")
        if self.msv_window < 1:
            raise ConfigurationError("msv_window must be at least 1")
        if self.thread_pool_factor < 1:
            # An empty pool admits no thread: the run would stall.
            raise ConfigurationError("thread_pool_factor must be at least 1")
        if not (0 <= self.dilution_t <= self.msv_window):
            raise ConfigurationError(
                f"dilution_t must lie in [0, msv_window={self.msv_window}]"
            )
        if self.bloom_bits <= 0 or self.bloom_bits & (self.bloom_bits - 1) != 0:
            raise ConfigurationError("bloom_bits must be a positive power of two")


#: Default machine used throughout tests and benchmarks.
DEFAULT_SYSTEM = SystemParams()

#: The paper's chosen SLICC operating point.
DEFAULT_SLICC = SliccParams()
