"""Remote segment search: the missed-tag queue (Section 4.2.3).

The MTQ is a ``matched_t``-entry FIFO. Each entry is an ``n_cores``-bit
presence vector: bit *C* of entry *i* says the *i*-th recently missed
instruction block is cached at core *C* (as reported by core C's cache
signature). ANDing the vectors tells the agent which cores hold *all* of
the recent misses — i.e. which remote cache already contains the segment
preamble the thread is heading into.

Presence vectors are plain Python ints used as bitmasks; entry count and
core count are both tiny.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError


class MissedTagQueue:
    """FIFO of presence bitvectors for recently missed instruction tags."""

    __slots__ = ("matched_t", "n_cores", "_entries")

    def __init__(self, matched_t: int, n_cores: int) -> None:
        if matched_t <= 0:
            raise ConfigurationError("matched_t must be positive")
        if n_cores <= 0:
            raise ConfigurationError("n_cores must be positive")
        self.matched_t = matched_t
        self.n_cores = n_cores
        self._entries: deque[int] = deque(maxlen=matched_t)

    @property
    def full(self) -> bool:
        """True when ``matched_t`` misses have been recorded."""
        return len(self._entries) == self.matched_t

    @property
    def occupancy(self) -> int:
        """Number of recorded misses (up to ``matched_t``)."""
        return len(self._entries)

    def record(self, presence_mask: int) -> None:
        """Push the presence vector of the newest miss (oldest falls out)."""
        self._entries.append(presence_mask)

    def common_cores(self, exclude: int | None = None) -> list[int]:
        """Cores whose caches hold *all* recorded missed tags.

        Returns an empty list unless the queue is full — a migration
        decision needs ``matched_t`` corroborating misses.

        Args:
            exclude: core id to drop from the result (the local core).
        """
        if not self.full:
            return []
        mask = (1 << self.n_cores) - 1
        for entry in self._entries:
            mask &= entry
            if not mask:
                return []
        if exclude is not None:
            mask &= ~(1 << exclude)
        return [c for c in range(self.n_cores) if mask & (1 << c)]

    def reset(self) -> None:
        """Drop all recorded misses (on a thread switch or a STAY)."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MissedTagQueue({len(self._entries)}/{self.matched_t} entries)"
        )
