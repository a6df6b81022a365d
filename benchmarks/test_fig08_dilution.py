"""Figure 8 — I/D-MPKI and speedup vs dilution_t.

Paper result: raising dilution_t first improves performance (fewer,
better-timed migrations), peaks around 10, then degrades as migration
becomes too restricted; migration counts fall monotonically.
"""

import pytest

from repro.analysis import format_table
from repro.exp import grid, spec_for
from repro.sim import SimConfig

DILUTION_VALUES = tuple(range(2, 31, 4))


@pytest.mark.parametrize("workload", ["tpcc-1", "tpce"])
def test_fig08_dilution_sweep(benchmark, traces, run_sim, exp_runner, workload):
    trace = traces[workload]
    baseline = run_sim(workload, "base")
    specs = grid(
        spec_for(trace, SimConfig(variant="slicc-sw")),
        {"slicc.dilution_t": DILUTION_VALUES},
    )

    results = benchmark.pedantic(
        exp_runner.run,
        args=(specs,),
        kwargs={"trace": trace},
        iterations=1,
        rounds=1,
    )
    rows = [
        [
            spec.config.slicc.dilution_t,
            result.i_mpki,
            result.d_mpki,
            result.speedup_over(baseline),
            result.migrations,
        ]
        for spec, result in zip(specs, results)
    ]
    print()
    print(
        format_table(
            ["dilution_t", "I-MPKI", "D-MPKI", "speedup", "migrations"],
            rows,
            title=f"Figure 8 — {workload} (fill-up_t=256, matched_t=4)",
        )
    )
    # Shape: migrations fall monotonically (allowing small noise).
    assert results[-1].migrations < results[0].migrations
    # D-MPKI falls as migration is restricted.
    assert results[-1].d_mpki <= results[0].d_mpki + 0.5
