"""Cache-full detection: the saturating miss counter (Section 4.2.1).

A log2(cache blocks)-wide resettable saturating counter per core counts
L1-I misses. When it saturates at ``fill_up_t`` the cache is considered
to hold a full code segment, and migrations become possible. The counter
is reset — without flushing the cache — whenever the core's thread queue
drains, giving a later thread the chance to install a new segment.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class MissCounter:
    """Resettable saturating miss counter (the paper's MC)."""

    __slots__ = ("fill_up_t", "_count")

    def __init__(self, fill_up_t: int) -> None:
        if fill_up_t <= 0:
            raise ConfigurationError("fill_up_t must be positive")
        self.fill_up_t = fill_up_t
        self._count = 0

    @property
    def count(self) -> int:
        """Current value (saturates at ``fill_up_t``)."""
        return self._count

    @property
    def full(self) -> bool:
        """True once the cache is considered full of a useful segment."""
        return self._count >= self.fill_up_t

    def record_miss(self) -> bool:
        """Count one miss; returns the post-update :attr:`full` state."""
        if self._count < self.fill_up_t:
            self._count += 1
        return self._count >= self.fill_up_t

    def reset(self) -> None:
        """Reset to empty: the core may cache a new segment (Q.1)."""
        self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MissCounter({self._count}/{self.fill_up_t})"
