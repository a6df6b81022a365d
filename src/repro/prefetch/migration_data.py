"""Migration data prefetcher — the paper's negative result (Section 5.5).

To mitigate the data misses a migrating thread suffers at its new core,
the authors tried recording the tags of the last *n* referenced data
blocks per thread and prefetching them to the migration target. It did
not help, for four reasons the paper lists: (1) extra bandwidth on the
lower cache levels at high *n*, (2) too little reuse at low *n*, (3) not
every prefetched block is referenced again, and (4) 45% of data accesses
are stores, so prefetching shared blocks provokes invalidations that
would not otherwise occur.

We reproduce the mechanism so the experiment can be regenerated: a
per-thread ring of recent data block tags, drained into the target L1-D
on migration. The engine charges a per-block bandwidth cost and routes
installs through the coherence directory so effects (3) and (4) emerge
naturally;
`benchmarks/test_ext_steps_dataprefetch.py::test_ext_migration_data_prefetch`
shows the resulting non-improvement.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError


class MigrationDataPrefetcher:
    """Per-thread last-*n* data-block history with migration drain.

    The hot state is ``_history`` (thread id -> bounded deque of recent
    data blocks) and ``_pending`` (thread id -> set of prefetched tags
    not yet demanded). The replay kernel resolves both once per quantum
    (the running thread is fixed within one) and drives them directly,
    batching ``useful``; :meth:`record_access` and :meth:`note_demand`
    remain the reference implementation used by the engine's reference
    path (``kernel="reference"``) and by unit tests.
    """

    __slots__ = ("n_blocks", "_history", "issued", "useful", "_pending")

    def __init__(self, n_blocks: int = 16) -> None:
        if n_blocks <= 0:
            raise ConfigurationError("n_blocks must be positive")
        self.n_blocks = n_blocks
        self._history: dict[int, deque[int]] = {}
        #: Prefetches issued across all migrations.
        self.issued = 0
        #: Prefetched blocks later demanded at the target (usefulness).
        self.useful = 0
        self._pending: dict[int, set[int]] = {}

    def record_access(self, thread_id: int, block: int) -> None:
        """Note a data access by ``thread_id`` (call on every data record)."""
        history = self._history.get(thread_id)
        if history is None:
            history = deque(maxlen=self.n_blocks)
            self._history[thread_id] = history
        history.append(block)

    def blocks_for_migration(self, thread_id: int) -> list[int]:
        """Distinct recent blocks to ship to the migration target.

        Most-recent-first so a truncated drain keeps the hottest tags.
        """
        history = self._history.get(thread_id)
        if not history:
            return []
        seen: list[int] = []
        for block in reversed(history):
            if block not in seen:
                seen.append(block)
        self.issued += len(seen)
        self._pending.setdefault(thread_id, set()).update(seen)
        return seen

    def note_demand(self, thread_id: int, block: int) -> bool:
        """A demand access at the target; True if it consumed a prefetch."""
        pending = self._pending.get(thread_id)
        if pending and block in pending:
            pending.discard(block)
            self.useful += 1
            return True
        return False

    @property
    def accuracy(self) -> float:
        """Useful / issued prefetches (paper effect (3): well below 1)."""
        return self.useful / self.issued if self.issued else 0.0
