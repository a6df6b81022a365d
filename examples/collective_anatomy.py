#!/usr/bin/env python3
"""Anatomy of a cache collective: the Figure 4 scenario, instrumented.

Builds a single-transaction-type workload (the cleanest regime for
SLICC), replays it with migration enabled, and then inspects the
machine: which code segment each core's L1-I ended up holding, how many
misses each core's L1-I paid, and the headline I-MPKI cut. This is
the experiment demonstrating the *self-assembly* the paper's title
promises — later threads ride the collective the first threads built.

Run:  python examples/collective_anatomy.py
"""

import repro
from repro.params import SliccParams
from repro.sim import SimConfig
from repro.sim.engine import ReplayEngine
from repro.workloads import (
    DataSpec,
    PathStep,
    TransactionTypeSpec,
    WorkloadSpec,
    generate_trace,
    layout_segments,
)


def build_mono_workload() -> WorkloadSpec:
    """One transaction type over six 28KB segments, A-B-C-D-E-F-A-C-E-A."""
    segments = layout_segments([448] * 6)
    path = tuple(
        PathStep(seg_id=i, inner_iterations=2)
        for i in (0, 1, 2, 3, 4, 5, 0, 2, 4, 0)
    )
    return WorkloadSpec(
        name="mono",
        segments=tuple(segments),
        txn_types=(
            TransactionTypeSpec(type_id=0, name="Txn", weight=1.0, path=path),
        ),
        data=DataSpec(),
    )


def segment_of(spec: WorkloadSpec, block: int) -> int | None:
    for seg in spec.segments:
        if seg.base_block <= block < seg.base_block + seg.n_blocks:
            return seg.seg_id
    return None


def main() -> None:
    spec = build_mono_workload()
    trace = generate_trace(spec, n_threads=24, seed=3)
    base = repro.simulate(trace, variant="base")

    config = SimConfig(
        variant="slicc",
        slicc=SliccParams(dilution_t=10),
        work_stealing=False,  # keep the collective pristine for inspection
    )
    engine = ReplayEngine(trace, config)
    result = engine.run()

    print("Final L1-I contents per core (blocks per segment):")
    for core in range(16):
        counts: dict[int, int] = {}
        for block in engine.machine.l1i[core].resident_blocks():
            seg = segment_of(spec, block)
            counts[seg] = counts.get(seg, 0) + 1
        held = ", ".join(
            f"seg{seg}:{n}" for seg, n in sorted(counts.items()) if n > 32
        )
        print(f"  core {core:2d}: {held or '(scraps)'}")

    print("\nPer-core L1-I misses / accesses:")
    for core in range(16):
        stats = engine.machine.l1i[core].stats
        print(
            f"  core {core:2d}: {stats.misses:6d} / {stats.accesses:7d} "
            f"({stats.miss_ratio:.1%})"
        )
    print(
        f"I-MPKI: {base.i_mpki:.2f} (base) -> {result.i_mpki:.2f} (SLICC), "
        f"a {1 - result.i_mpki / base.i_mpki:.0%} cut; "
        f"{result.migrations} migrations"
    )


if __name__ == "__main__":
    main()
