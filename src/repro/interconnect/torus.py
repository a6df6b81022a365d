"""2D torus interconnect.

The paper's machine connects 16 cores with a 4x4 2D torus at one cycle per
hop (Table 2). The simulator uses hop distances for two things: the cost
of shipping a thread context during migration, and the (reported, not
charged) broadcast traffic of remote segment search.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigurationError


@lru_cache(maxsize=None)
def _hop_table(width: int) -> tuple[tuple[int, ...], ...]:
    """Hop counts between every node pair of a ``width`` x ``width``
    torus, as an immutable row-major table. Hops do not depend on the
    per-hop latency, so one table serves every ``hop_cycles``."""

    def axis(d: int) -> int:
        return min(d, width - d)

    return tuple(
        tuple(
            axis(abs(a % width - b % width)) + axis(abs(a // width - b // width))
            for b in range(width * width)
        )
        for a in range(width * width)
    )


class Torus2D:
    """A ``width`` x ``width`` torus with unit hop latency.

    Core *i* sits at ``(i % width, i // width)``. Distances are Manhattan
    with wrap-around, i.e. each axis contributes
    ``min(d, width - d)`` hops.
    """

    def __init__(self, width: int, hop_cycles: int = 1) -> None:
        if width <= 0:
            raise ConfigurationError("torus width must be positive")
        if hop_cycles < 0:
            raise ConfigurationError("hop_cycles must be non-negative")
        self.width = width
        self.hop_cycles = hop_cycles
        self.n_nodes = width * width
        # The full distance matrix, shared by every torus of this width:
        # migration cost lookups sit on the simulator's hot-ish path, and
        # every engine construction builds a torus.
        self._dist = _hop_table(width)

    def hops(self, a: int, b: int) -> int:
        """Hop count between cores ``a`` and ``b`` (0 when equal)."""
        return self._dist[a][b]

    def latency(self, a: int, b: int) -> int:
        """Cycles to traverse from ``a`` to ``b``."""
        return self._dist[a][b] * self.hop_cycles

    def broadcast_hops(self, source: int) -> int:
        """Total hops for a naive unicast broadcast from ``source``.

        Used to account remote-segment-search traffic (Section 5.8).
        """
        return sum(self._dist[source])

    def nearest(self, source: int, candidates: list[int]) -> int:
        """The candidate core closest to ``source`` (ties -> lowest id).

        Raises:
            ValueError: if ``candidates`` is empty.
        """
        if not candidates:
            raise ValueError("candidates must be non-empty")
        return min(candidates, key=lambda c: (self._dist[source][c], c))
