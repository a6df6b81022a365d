"""Instruction-block reuse analysis (Figure 3, Section 2.1.3).

Classifies every instruction access by how many threads touch the
accessed block over the whole trace:

* **single** — the block is only ever touched by one thread;
* **few** — touched by more than one but at most 60% of the threads;
* **most** — touched by more than 60% of the threads.

The *global* analysis counts sharing across all threads; the
*per-transaction* analysis restricts both the sharer count and the
denominator to threads of the same type, which is where the paper finds
~98% of accesses hitting "most"-shared blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.trace import KIND_INSTR, Trace, ThreadTrace

#: Blocks shared by more than this fraction of threads count as "most".
MOST_THRESHOLD = 0.60


@dataclass(frozen=True)
class ReuseBreakdown:
    """Fractions of instruction accesses by block-sharing category.

    The three fields sum to 1.0 (within float error) for a non-empty
    trace.
    """

    single: float
    few: float
    most: float

    def as_row(self) -> dict[str, float]:
        """Dict form used by the Figure 3 bench report."""
        return {"single": self.single, "few": self.few, "most": self.most}


def _breakdown(threads: list[ThreadTrace]) -> ReuseBreakdown:
    """Access-weighted sharing breakdown over a set of threads."""
    import numpy as np

    n_threads = len(threads)
    if n_threads == 0:
        return ReuseBreakdown(0.0, 0.0, 0.0)
    sharers: dict[int, int] = {}
    for thread in threads:
        for block in thread.instruction_blocks():
            sharers[int(block)] = sharers.get(int(block), 0) + 1

    threshold = MOST_THRESHOLD * n_threads
    counts = {"single": 0, "few": 0, "most": 0}
    for thread in threads:
        instr = thread.addr[thread.kind == KIND_INSTR]
        blocks, per_block = np.unique(instr, return_counts=True)
        for block, n_accesses in zip(blocks, per_block):
            s = sharers[int(block)]
            if s <= 1:
                counts["single"] += int(n_accesses)
            elif s > threshold:
                counts["most"] += int(n_accesses)
            else:
                counts["few"] += int(n_accesses)
    total = sum(counts.values())
    if total == 0:
        return ReuseBreakdown(0.0, 0.0, 0.0)
    return ReuseBreakdown(
        single=counts["single"] / total,
        few=counts["few"] / total,
        most=counts["most"] / total,
    )


def global_reuse(trace: Trace) -> ReuseBreakdown:
    """Sharing breakdown across *all* threads (Figure 3 "Global")."""
    return _breakdown(trace.threads)


def per_transaction_reuse(trace: Trace) -> ReuseBreakdown:
    """Access-weighted sharing within same-type thread groups
    (Figure 3 "Per Transaction")."""
    groups = [
        trace.threads_of_type(type_id) for type_id in trace.types_present()
    ]
    # Weight each group's breakdown by its access count.
    total_accesses = 0
    acc = {"single": 0.0, "few": 0.0, "most": 0.0}
    for group in groups:
        breakdown = _breakdown(group)
        accesses = sum(t.n_instruction_records for t in group)
        total_accesses += accesses
        acc["single"] += breakdown.single * accesses
        acc["few"] += breakdown.few * accesses
        acc["most"] += breakdown.most * accesses
    if total_accesses == 0:
        return ReuseBreakdown(0.0, 0.0, 0.0)
    return ReuseBreakdown(
        single=acc["single"] / total_accesses,
        few=acc["few"] / total_accesses,
        most=acc["most"] / total_accesses,
    )
