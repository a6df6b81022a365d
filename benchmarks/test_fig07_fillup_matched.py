"""Figure 7 — I/D-MPKI and speedup vs fill-up_t x matched_t.

Paper result: performance is largely insensitive to fill-up_t (it only
shapes warm-up); matched_t beyond ~4 limits migration and erodes the
benefit, while matched_t = 2 migrates too often. The paper runs this
plane with dilution_t = 0.
"""

import pytest

from repro.analysis import format_table
from repro.exp import grid, spec_for
from repro.params import SliccParams
from repro.sim import SimConfig

FILL_VALUES = (128, 256, 384, 512)
MATCH_VALUES = (2, 4, 6, 8, 10)


@pytest.mark.parametrize("workload", ["tpcc-1", "tpce"])
def test_fig07_grid(benchmark, traces, run_sim, exp_runner, workload):
    trace = traces[workload]
    baseline = run_sim(workload, "base")
    config = SimConfig(variant="slicc-sw", slicc=SliccParams(dilution_t=0))
    specs = grid(
        spec_for(trace, config),
        {"slicc.fill_up_t": FILL_VALUES, "slicc.matched_t": MATCH_VALUES},
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
            spec.config.slicc.fill_up_t,
            spec.config.slicc.matched_t,
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
            ["fill-up_t", "matched_t", "I-MPKI", "D-MPKI", "speedup", "migs"],
            rows,
            title=f"Figure 7 — {workload} (dilution_t=0)",
        )
    )
    # Shape checks: fill-up_t insensitivity (spread of speedups across
    # fill-up at the paper's matched_t=4 stays small)...
    at_match4 = [row[4] for row in rows if row[1] == 4]
    assert max(at_match4) - min(at_match4) < 0.35
    # ...and larger matched_t migrates less.
    migs_by_match = {
        m: sum(row[5] for row in rows if row[1] == m) for m in MATCH_VALUES
    }
    assert migs_by_match[10] < migs_by_match[2]
