"""Figures 7, 8, 10 and 11 and Sections 5.5 and 5.8, checked on the
figure registry's rows.

Each of these results is defined once, in :mod:`repro.exp.figures`.
The tests take the ``ci`` rows that ``repro paper --scale ci`` runs (at
seed :data:`~repro.exp.figures.FIGURE_SEED`), run one figure's rows for
one workload in a single ``Runner.run`` call, and print them through
:func:`repro.analysis.figure_table`, the renderer of ``repro paper``'s
reports, above what the paper reports. Figures 7 and 8 are registered
on TPC-C-1 alone; their TPC-E cases re-target the same rows. The
Section 5.5 (TLB) statistics read Figure 10's rows, and the Section 5.8
(broadcast) statistics the SLICC rows of Figure 11.
"""

import collections
import dataclasses

import pytest

from repro.analysis import figure_table, format_table
from repro.exp.figures import FigureRow, get_figure, row_specs

#: What the paper reports, printed under each reproduced table.
PAPER = {
    "fig7-thresholds": dict.fromkeys(
        ("tpcc-1", "tpce"),
        "speedup barely moves with fill-up_t (it only shapes warm-up); "
        "matched_t=2 migrates too often, and beyond ~4 migration is "
        "limited and the benefit erodes",
    ),
    "fig8-dilution": dict.fromkeys(
        ("tpcc-1", "tpce"),
        "speedup rises with dilution_t, peaks near 10, then falls as "
        "migration becomes too restricted; migrations fall monotonically",
    ),
    "fig10-mpki": {
        "tpcc-1": "SLICC-SW cuts I-MPKI by 56% at +11% D-MPKI; the "
        "oblivious SLICC cuts ~40% on average",
        "tpcc-10": "SLICC-SW adds +1% D-MPKI on the larger database",
        "tpce": "SLICC-SW cuts I-MPKI by 61% at +4% D-MPKI",
        "mapreduce": "no variant changes I-MPKI",
    },
    "fig11-speedup": {
        "tpcc-1": "SLICC-SW 1.60x, within 2% of PIF (1.63x), above "
        "next-line",
        "tpcc-10": "SLICC-SW above next-line",
        "tpce": "SLICC-SW 1.79x, 21% above PIF (1.48x)",
        "mapreduce": "SLICC-SW 1.00x",
    },
}

#: Section 5.8 broadcasts per kilo-instruction.
PAPER_BPKI = {
    ("tpcc-1", "slicc"): 2.204,
    ("tpcc-1", "slicc-sw"): 0.28,
    ("tpce", "slicc"): 1.328,
    ("tpce", "slicc-sw"): 0.367,
}


def _rows(name, workload):
    """Figure ``name``'s ``ci`` rows for ``workload``. A figure
    registered on another workload alone is re-targeted row by row."""
    rows = get_figure(name).build("ci")
    if workload not in {row.spec.workload for row in rows}:
        rows = [
            FigureRow(
                dataclasses.replace(row.spec, workload=workload),
                dataclasses.replace(row.baseline, workload=workload),
            )
            for row in rows
        ]
    return [row for row in rows if row.spec.workload == workload]


def _run(runner, name, workload):
    """Run figure ``name``'s rows for ``workload`` in one runner call;
    return each row with its result and its baseline's result."""
    rows = _rows(name, workload)
    runner.run(row_specs(rows))
    get = runner.store.get
    return [(row, get(row.spec.key()), get(row.baseline.key())) for row in rows]


def _check(benchmark, runner, name, workload):
    """:func:`_run`, timed, with the rows printed as ``repro paper``
    tabulates them and the paper's result under them."""
    runs = benchmark.pedantic(
        _run, args=(runner, name, workload), iterations=1, rounds=1
    )
    figure = get_figure(name)
    headers, table = figure_table(
        figure, [row for row, _, _ in runs], runner.store
    )
    print()
    print(format_table(headers, table, title=f"{figure.title} — {workload}"))
    print(f"paper: {PAPER[name][workload]}")
    return runs


def _by_variant(runs):
    return {row.spec.variant: result for row, result, _ in runs}


@pytest.mark.parametrize("workload", ["tpcc-1", "tpce"])
def test_fig07_grid(benchmark, exp_runner, workload):
    runs = _check(benchmark, exp_runner, "fig7-thresholds", workload)
    # Shape checks: fill-up_t insensitivity (spread of speedups across
    # fill-up at the paper's matched_t=4 stays small)...
    at_match4 = [
        result.speedup_over(base)
        for row, result, base in runs
        if row.spec.config.slicc.matched_t == 4
    ]
    assert max(at_match4) - min(at_match4) < 0.35
    # ...and the largest matched_t migrates less than the smallest.
    migs_by_match = collections.Counter()
    for row, result, _ in runs:
        migs_by_match[row.spec.config.slicc.matched_t] += result.migrations
    assert migs_by_match[max(migs_by_match)] < migs_by_match[2]


@pytest.mark.parametrize("workload", ["tpcc-1", "tpce"])
def test_fig08_dilution_sweep(benchmark, exp_runner, workload):
    runs = _check(benchmark, exp_runner, "fig8-dilution", workload)
    first, last = runs[0][1], runs[-1][1]
    # Shape: migrations fall monotonically (allowing small noise).
    assert last.migrations < first.migrations
    # D-MPKI falls as migration is restricted.
    assert last.d_mpki <= first.d_mpki + 0.5


@pytest.mark.parametrize(
    "workload", ["tpcc-1", "tpcc-10", "tpce", "mapreduce"]
)
def test_fig10_mpki(benchmark, exp_runner, workload):
    results = _by_variant(
        _check(benchmark, exp_runner, "fig10-mpki", workload)
    )
    base = results["base"]
    if workload == "mapreduce":
        # Robustness: SLICC leaves the small-footprint workload alone.
        for variant in ("slicc", "slicc-sw"):
            r = results[variant]
            assert r.i_mpki == pytest.approx(base.i_mpki, rel=0.1)
    elif workload.startswith("tpcc"):
        # Shape: migration trades instruction misses for data misses.
        assert results["slicc-sw"].i_mpki < base.i_mpki
        assert results["slicc-sw"].d_mpki >= base.d_mpki * 0.95
    else:
        # TPC-E at CI scale: the 10-way type mix leaves each partition
        # only 3-5 caches against a 4-segment footprint, so SLICC-SW does
        # not beat the (inner-loop-friendly) baseline's I-MPKI here, where
        # the paper cuts it by 61% (ROADMAP.md item 1 tables the gap).
        # The orderings that do hold: type-awareness beats oblivious, and
        # the D-MPKI cost of migration appears exactly as the paper
        # describes.
        assert results["slicc-sw"].i_mpki <= results["slicc"].i_mpki
        assert results["slicc-sw"].d_mpki >= base.d_mpki * 0.95


@pytest.mark.parametrize(
    "workload", ["tpcc-1", "tpcc-10", "tpce", "mapreduce"]
)
def test_fig11_performance(benchmark, exp_runner, workload):
    runs = _check(benchmark, exp_runner, "fig11-speedup", workload)
    speed = {
        row.spec.variant: result.speedup_over(base)
        for row, result, base in runs
    }
    if workload == "mapreduce":
        assert speed["slicc-sw"] == pytest.approx(1.0, abs=0.2)
    else:
        # Shape checks that hold at this scale: prefetching and the PIF
        # upper bound beat the baseline; SLICC-SW cuts instruction
        # misses below the oblivious variant's level (Figure 10) even
        # where makespan is pipeline-bound. SLICC-SW's own speedup falls
        # well short of the paper's 1.60x/1.79x at this scale (ROADMAP.md
        # item 1 tables the gap).
        assert speed["nextline"] > 1.0
        assert speed["pif"] > 1.0


@pytest.mark.parametrize("workload", ["tpcc-1"])
def test_sec55_tlb_deltas(benchmark, exp_runner, workload):
    results = _by_variant(
        benchmark.pedantic(
            _run,
            args=(exp_runner, "fig10-mpki", workload),
            iterations=1,
            rounds=1,
        )
    )
    base = results["base"]
    rows = [
        [
            variant,
            results[variant].itlb_mpki,
            results[variant].dtlb_mpki,
            results[variant].dtlb_mpki / base.dtlb_mpki - 1
            if base.dtlb_mpki
            else 0.0,
        ]
        for variant in ("base", "slicc", "slicc-sw")
    ]
    print()
    print(
        format_table(
            ["variant", "I-TLB MPKI", "D-TLB MPKI", "D-TLB growth"],
            rows,
            title=f"Section 5.5 TLB — {workload} (paper: D-TLB +11% "
            "SLICC, +8% SLICC-SW; I-TLB within 0.5%)",
        )
    )
    # Shape: migration does not reduce D-TLB misses, and I-TLB stays low.
    assert results["slicc"].dtlb_misses >= base.dtlb_misses * 0.98
    assert results["slicc"].itlb_mpki < 1.0


@pytest.mark.parametrize("workload", ["tpcc-1", "tpce"])
def test_sec58_broadcast_frequency(benchmark, exp_runner, workload):
    results = _by_variant(
        benchmark.pedantic(
            _run,
            args=(exp_runner, "fig11-speedup", workload),
            iterations=1,
            rounds=1,
        )
    )
    rows = [
        [
            variant,
            results[variant].bpki,
            PAPER_BPKI.get((workload, variant), float("nan")),
            results[variant].instructions_per_migration(),
        ]
        for variant in ("slicc", "slicc-sw", "slicc-pp")
    ]
    print()
    print(
        format_table(
            ["variant", "BPKI", "paper BPKI", "instr/migration"],
            rows,
            title=f"Section 5.8 — {workload} (paper: ~3.2K instr/migration)",
        )
    )
    # Shape: broadcasts are rare relative to instructions (single digits
    # per kilo-instruction), and the type-aware variants search no more
    # than the oblivious one.
    assert results["slicc"].bpki < 10
    assert results["slicc-sw"].bpki <= results["slicc"].bpki * 1.5
