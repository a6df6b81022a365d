"""Tests for the reuse analysis and report formatting."""

import numpy as np
import pytest

from repro.analysis import format_table, global_reuse, per_transaction_reuse
from repro.params import ScalePreset
from repro.workloads import standard_trace
from repro.workloads.trace import KIND_INSTR, Trace, ThreadTrace


def make_trace(streams, types):
    threads = [
        ThreadTrace(
            thread_id=i,
            txn_type=types[i],
            addr=np.array(stream, dtype=np.int64),
            kind=np.zeros(len(stream), dtype=np.int8) + KIND_INSTR,
        )
        for i, stream in enumerate(streams)
    ]
    return Trace(
        workload="synthetic", threads=threads,
        instructions_per_iblock=12, seed=0,
    )


class TestReuse:
    def test_disjoint_blocks_all_single(self):
        trace = make_trace([[1, 2], [3, 4]], [0, 1])
        breakdown = global_reuse(trace)
        assert breakdown.single == pytest.approx(1.0)

    def test_fully_shared_blocks_all_most(self):
        trace = make_trace([[1, 2], [1, 2], [1, 2]], [0, 0, 0])
        breakdown = global_reuse(trace)
        assert breakdown.most == pytest.approx(1.0)

    def test_fractions_sum_to_one(self, smoke_tpcc):
        b = global_reuse(smoke_tpcc)
        assert b.single + b.few + b.most == pytest.approx(1.0)

    def test_per_transaction_sharing_exceeds_global(self):
        """The Figure 3 headline: same-type threads share more."""
        trace = standard_trace("tpcc-1", ScalePreset.SMOKE, n_threads=12)
        global_b = global_reuse(trace)
        per_txn = per_transaction_reuse(trace)
        assert per_txn.most >= global_b.most

    def test_per_transaction_mostly_shared_on_tpcc(self):
        # One-thread type groups contribute "single" accesses, so the
        # fraction rises with thread count; the CI-scale bench reproduces
        # the paper's ~98%, here we check the structural property.
        trace = standard_trace("tpcc-1", ScalePreset.SMOKE, n_threads=24)
        per_txn = per_transaction_reuse(trace)
        assert per_txn.most > 0.8


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.500" in out and "3.250" in out
