"""Trace containers.

A trace is the unit of exchange between the workload generators and the
simulation engine: per thread, two parallel numpy arrays of block ids and
access kinds. Encoding one record per *cache block* touched (rather than
per instruction) keeps traces ~12x smaller than instruction-granular ones
at zero loss for cache simulation — consecutive instructions in the same
block cannot change any cache state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TraceError

if TYPE_CHECKING:  # numpy loads with the first trace built, not here
    import numpy as np

#: Access kinds (values of ``ThreadTrace.kind``).
KIND_INSTR = 0
KIND_LOAD = 1
KIND_STORE = 2


@dataclass
class ThreadTrace:
    """The replayable access stream of one worker thread.

    Attributes:
        thread_id: unique id within the trace.
        txn_type: transaction type id (ground truth; the type-oblivious
            SLICC variant never reads it).
        addr: int64 block ids, program order.
        kind: int8 access kinds aligned with ``addr``.
    """

    thread_id: int
    txn_type: int
    addr: np.ndarray
    kind: np.ndarray

    def __post_init__(self) -> None:
        if len(self.addr) != len(self.kind):
            raise TraceError(
                f"thread {self.thread_id}: addr/kind length mismatch "
                f"({len(self.addr)} vs {len(self.kind)})"
            )

    def __len__(self) -> int:
        return len(self.addr)

    @property
    def n_instruction_records(self) -> int:
        """Number of instruction-block records."""
        import numpy as np

        return int(np.count_nonzero(self.kind == KIND_INSTR))

    @property
    def n_data_records(self) -> int:
        """Number of load/store records."""
        return len(self) - self.n_instruction_records

    def instruction_blocks(self) -> np.ndarray:
        """Distinct instruction block ids this thread touches."""
        import numpy as np

        return np.unique(self.addr[self.kind == KIND_INSTR])


@dataclass
class Trace:
    """A full workload trace: many threads plus generation metadata."""

    workload: str
    threads: list[ThreadTrace]
    instructions_per_iblock: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.threads:
            raise TraceError("trace has no threads")
        ids = [t.thread_id for t in self.threads]
        if len(set(ids)) != len(ids):
            raise TraceError("duplicate thread ids in trace")

    def __len__(self) -> int:
        return len(self.threads)

    @property
    def total_records(self) -> int:
        """Total access records across all threads."""
        return sum(len(t) for t in self.threads)

    @property
    def total_instructions(self) -> int:
        """Retired instructions the trace represents."""
        return sum(
            t.n_instruction_records for t in self.threads
        ) * self.instructions_per_iblock

    def replay_records(self, page_shift: int) -> list[list[tuple[int, int, int]]]:
        """The replay engine's input: per thread (aligned with
        ``threads``), one ``(block, kind, page)`` tuple per access
        record in program order, where ``page = block >> page_shift``.

        Unpacking a tuple taken from a list yields Python ints, where
        indexing a numpy array boxes a numpy scalar per access that must
        then be unboxed. Each distinct ``(block, kind)`` of the trace is
        one tuple, shared by every record and thread that repeats it,
        and each distinct page is one int. A record so costs one list
        slot plus its share of the tuples, and a probe of the engine's
        cache, directory or TLB dicts often finds the very object it
        looks up, which matches on identity.

        Memoised per ``page_shift``. The records are read-only by
        contract: every simulation of this trace in the process shares
        them, and under ``fork``-based runners every worker inherits the
        parent's copy. Pickling drops them (see :meth:`__getstate__`).
        """
        memo = getattr(self, "_replay_records", None)
        if memo is not None and memo[0] == page_shift:
            return memo[1]
        import numpy as np

        # A record's key packs (block, kind) into one int64: kinds take
        # two bits, which block ids of a 64-bit address space leave free.
        interned: dict[int, tuple[int, int, int]] = {}
        pages: dict[int, int] = {}
        tables = []
        # Thread by thread, so no temporary spans the whole trace; the
        # lookups run in C, and only keys new to the trace build tuples.
        for thread in self.threads:
            keys = (thread.addr << 2) | thread.kind
            distinct, inverse = np.unique(keys, return_inverse=True)
            found = np.fromiter(
                map(interned.get, distinct.tolist()), object, len(distinct)
            )
            new = np.equal(found, None)
            fresh = distinct[new]
            page_ids = (fresh >> (2 + page_shift)).tolist()
            records = np.fromiter(
                zip(
                    (fresh >> 2).tolist(),
                    (fresh & 3).tolist(),
                    map(pages.setdefault, page_ids, page_ids),
                ),
                object,
                len(fresh),
            )
            interned.update(zip(fresh.tolist(), records))
            found[new] = records
            tables.append(found[inverse].tolist())
        self._replay_records = (page_shift, tables)
        return tables

    def __getstate__(self) -> dict:
        # The replay records are a pure function of the threads and would
        # bloat every ``spawn``-style transfer; the receiver rebuilds them.
        state = dict(self.__dict__)
        state.pop("_replay_records", None)
        return state

    def types_present(self) -> list[int]:
        """Sorted distinct transaction type ids."""
        return sorted({t.txn_type for t in self.threads})

    def threads_of_type(self, type_id: int) -> list[ThreadTrace]:
        """All threads running the given transaction type."""
        return [t for t in self.threads if t.txn_type == type_id]
