"""Integration tests for the replay engine across all six variants."""

import os
import subprocess
import sys
import unittest

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.params import ScalePreset, SliccParams, SystemParams
from repro.sim import ReplayEngine, SimConfig, simulate
from repro.workloads import standard_trace
from repro.workloads.trace import KIND_INSTR, ThreadTrace, Trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALL_VARIANTS = ["base", "nextline", "pif", "slicc", "slicc-sw", "slicc-pp"]


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(variant="magic")

    def test_bad_quantum_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(quantum=0)

    @pytest.mark.parametrize("depth", [0, -5])
    def test_steal_min_depth_below_one_rejected(self, depth):
        """Depth 0 lets an idle core steal from an empty queue: the
        simulation never finishes, so the config must not exist."""
        with pytest.raises(ConfigurationError, match="steal_min_depth"):
            SimConfig(variant="slicc", steal_min_depth=depth)

    def test_simulate_rejects_config_plus_kwargs(self, smoke_tpcc):
        with pytest.raises(ConfigurationError):
            simulate(smoke_tpcc, config=SimConfig(), variant="base")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestVariantsComplete:
    def test_all_threads_complete(self, smoke_tpcc, variant):
        result = simulate(smoke_tpcc, variant=variant)
        assert result.threads_completed == len(smoke_tpcc.threads)

    def test_cycles_positive(self, smoke_tpcc, variant):
        result = simulate(smoke_tpcc, variant=variant)
        assert result.cycles > 0

    def test_instruction_accounting(self, smoke_tpcc, variant):
        result = simulate(smoke_tpcc, variant=variant)
        assert result.instructions == smoke_tpcc.total_instructions

    def test_deterministic(self, smoke_tpcc, variant):
        a = simulate(smoke_tpcc, variant=variant)
        b = simulate(smoke_tpcc, variant=variant)
        assert a.cycles == b.cycles
        assert a.i_misses == b.i_misses
        assert a.d_misses == b.d_misses


class TestEngineMechanics:
    def test_engine_single_use(self, smoke_tpcc):
        engine = ReplayEngine(smoke_tpcc, SimConfig())
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_baseline_never_migrates(self, smoke_tpcc):
        result = simulate(smoke_tpcc, variant="base")
        assert result.migrations == 0 and result.broadcasts == 0

    def test_slicc_access_totals_match_baseline(self, smoke_tpcc):
        """Migration changes *where* accesses happen, never how many."""
        base = simulate(smoke_tpcc, variant="base")
        slicc = simulate(smoke_tpcc, variant="slicc")
        assert slicc.i_accesses == base.i_accesses
        assert slicc.d_accesses == base.d_accesses

    def test_pif_reduces_instruction_misses(self, smoke_tpcc):
        base = simulate(smoke_tpcc, variant="base")
        pif = simulate(smoke_tpcc, variant="pif")
        assert pif.i_misses <= base.i_misses

    def test_nextline_reduces_instruction_misses(self, smoke_tpcc):
        base = simulate(smoke_tpcc, variant="base")
        nl = simulate(smoke_tpcc, variant="nextline")
        assert nl.i_misses < base.i_misses

    def test_nextline_data_misses_unchanged(self, smoke_tpcc):
        base = simulate(smoke_tpcc, variant="base")
        nl = simulate(smoke_tpcc, variant="nextline")
        assert nl.d_misses == pytest.approx(base.d_misses, rel=0.02)

    def test_speedup_over_self_is_one(self, smoke_tpcc):
        r = simulate(smoke_tpcc, variant="base")
        assert r.speedup_over(r) == pytest.approx(1.0)

    def test_speedup_across_workloads_rejected(self, smoke_tpcc, smoke_tpce):
        a = simulate(smoke_tpcc, variant="base")
        b = simulate(smoke_tpce, variant="base")
        with pytest.raises(ValueError):
            a.speedup_over(b)

    def test_synchronised_arrivals_option(self, smoke_tpcc):
        result = simulate(
            smoke_tpcc, config=SimConfig(variant="base", arrival_spacing=0)
        )
        assert result.threads_completed == len(smoke_tpcc.threads)

    def test_miss_class_collection(self, smoke_tpcc):
        result = simulate(
            smoke_tpcc,
            config=SimConfig(variant="base", collect_miss_classes=True),
        )
        classes = result.miss_class_mpki
        assert set(classes) == {"instruction", "data"}
        total = sum(classes["instruction"].values())
        assert total == pytest.approx(result.i_mpki, rel=0.01)

    def test_utilization_bounded(self, smoke_tpcc):
        result = simulate(smoke_tpcc, variant="slicc")
        assert 0.0 < result.utilization <= 1.0

    def test_cycle_breakdown_consistent(self, smoke_tpcc):
        r = simulate(smoke_tpcc, variant="slicc")
        parts = (
            r.cycles_base
            + r.cycles_i_stall
            + r.cycles_d_stall
            + r.cycles_tlb
        )
        assert parts > 0
        assert r.instruction_stall_share > 0.5  # OLTP is fetch-bound


class TestSliccBehaviour:
    def test_slicc_migrates_on_oltp(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        result = simulate(trace, variant="slicc")
        assert result.migrations > 0
        assert result.broadcasts > 0

    def test_slicc_reduces_tpcc_instruction_misses(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        base = simulate(trace, variant="base")
        slicc = simulate(trace, variant="slicc")
        assert slicc.i_mpki < base.i_mpki

    def test_slicc_increases_data_misses(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        base = simulate(trace, variant="base")
        slicc = simulate(trace, variant="slicc")
        assert slicc.d_mpki >= base.d_mpki

    def test_mapreduce_unaffected_by_slicc(self, smoke_mapreduce):
        """The paper's robustness result: a small instruction footprint
        means no migrations and unchanged miss rates."""
        base = simulate(smoke_mapreduce, variant="base")
        slicc = simulate(smoke_mapreduce, variant="slicc")
        assert slicc.migrations == 0
        assert slicc.i_mpki == pytest.approx(base.i_mpki, rel=0.05)

    def test_dilution_zero_allows_more_migrations(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=16)
        eager = simulate(
            trace,
            config=SimConfig(variant="slicc", slicc=SliccParams(dilution_t=0)),
        )
        lazy = simulate(
            trace,
            config=SimConfig(
                variant="slicc", slicc=SliccParams(dilution_t=30)
            ),
        )
        assert eager.migrations > lazy.migrations

    def test_pp_uses_one_fewer_worker(self, smoke_tpcc):
        engine = ReplayEngine(smoke_tpcc, SimConfig(variant="slicc-pp"))
        assert len(engine.worker_cores) == 15

    def test_partition_covers_all_types(self, smoke_tpcc):
        engine = ReplayEngine(smoke_tpcc, SimConfig(variant="slicc-sw"))
        for thread in smoke_tpcc.threads:
            allowed = engine._allowed_for(thread.thread_id)
            assert allowed  # never empty


class TestStealFromAnIdleCore(unittest.TestCase):
    """Work stealing at ``steal_min_depth=1`` in the smallest world that
    livelocked: worker cores 0 and 1 run nothing, core 0 queues one
    thread, and cores 2 and 3 are busy. An idle core that took the
    thread left core 0 idle, the next idle core took it back, and no
    thread ever ran."""

    def setUp(self) -> None:
        addr = np.arange(8, dtype=np.int64)
        kind = np.full(len(addr), KIND_INSTR, dtype=np.int8)
        trace = Trace(
            "hand", [ThreadTrace(t, 0, addr, kind) for t in range(4)], 12, 0
        )
        config = SimConfig(
            variant="slicc",
            steal_min_depth=1,
            system=SystemParams(n_cores=4, torus_width=2),
        )
        self.engine = ReplayEngine(trace, config)
        self.engine.running[2], self.engine.running[3] = 1, 2
        self.engine.queues.enqueue(0, 0)

    def test_idle_victim_keeps_its_only_thread(self):
        self.engine._rebalance(0)
        self.assertEqual(
            [self.engine.queues.depth(core) for core in range(4)],
            [1, 0, 0, 0],
        )
        self.assertEqual(self.engine.steals, 0)

    def test_busy_victim_gives_up_its_only_thread(self):
        self.engine.running[0] = 3
        self.engine._rebalance(0)
        self.assertEqual(
            [self.engine.queues.depth(core) for core in range(4)],
            [0, 1, 0, 0],
        )
        self.assertEqual(self.engine.steals, 1)


def test_steal_at_depth_one_finishes():
    """``steal_min_depth=1`` on ci-scale tpcc-1 completes every thread.
    Run in a subprocess so a livelock fails on the timeout instead of
    hanging the suite; the run takes about 2 s on a 2-core Xeon VM."""
    code = (
        "from repro.params import ScalePreset\n"
        "from repro.sim import SimConfig, simulate\n"
        "from repro.workloads import standard_trace\n"
        "trace = standard_trace('tpcc-1', ScalePreset.CI, seed=7)\n"
        "config = SimConfig(variant='slicc', steal_min_depth=1)\n"
        "result = simulate(trace, config=config)\n"
        "print(result.threads_completed, len(trace.threads))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    completed, threads = done.stdout.split()
    assert completed == threads == "48"
