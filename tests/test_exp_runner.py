"""Tests for the parallel experiment runner.

Covers the acceptance criteria of the orchestration layer: the Runner
grid reproduces the seed's serial sweep loop exactly, repeated sweeps are
served from the ResultStore with zero new simulations, back-to-back
sweeps share one baseline run per trace hash, and results are
byte-identical between ``jobs=1`` and ``jobs=4``.
"""

import os
import sys
from dataclasses import replace

import pytest

from repro.exp import (
    ExperimentSpec,
    ResultStore,
    Runner,
    grid,
    result_to_json,
)
from repro.params import ScalePreset, SliccParams
from repro.sim import SimConfig, simulate
from repro.workloads import DEFAULT_THREADS

FILL_VALUES = (128, 256, 384, 512)
MATCH_VALUES = (2, 4, 6, 8, 10)


def smoke_spec(variant="base", label="", **config):
    """A spec on the ``smoke_tpcc`` fixture's trace."""
    return ExperimentSpec(
        "tpcc-1",
        config=SimConfig(variant=variant, **config),
        scale="smoke",
        seed=7,
        label=label,
    )


def fillup_grid():
    """The Figure 7 plane as grid specs (SLICC-SW, dilution off), its
    baseline first."""
    specs = grid(
        smoke_spec("slicc-sw", slicc=SliccParams(dilution_t=0)),
        {"slicc.fill_up_t": FILL_VALUES, "slicc.matched_t": MATCH_VALUES},
    )
    return [specs[0].baseline()] + specs


def serial_fillup(trace):
    """The seed's original hand-rolled serial loop, baseline first: the
    reference the Runner-backed grid must reproduce."""
    results = [simulate(trace, variant="base")]
    for fill_up in FILL_VALUES:
        for matched in MATCH_VALUES:
            slicc = SliccParams(
                fill_up_t=fill_up, matched_t=matched, dilution_t=0
            )
            results.append(
                simulate(trace, config=SimConfig(variant="slicc-sw", slicc=slicc))
            )
    return results


class TestRunnerBasics:
    def test_matches_direct_simulate(self, smoke_tpcc):
        spec = smoke_spec("slicc-sw")
        runner = Runner()
        (result,) = runner.run([spec])
        direct = simulate(smoke_tpcc, variant="slicc-sw")
        assert result_to_json(result) == result_to_json(direct)
        assert runner.last_stats.simulated == 1

    def test_stats_record_wall_and_per_spec_timing(self):
        specs = [smoke_spec(v, label=v) for v in ("base", "slicc")]
        runner = Runner()
        runner.run(specs)
        stats = runner.last_stats
        assert stats.simulated == 2
        assert stats.wall_seconds > 0
        assert stats.sim_seconds > 0
        assert set(stats.spec_seconds) == {spec.key() for spec in specs}
        assert all(s > 0 for s in stats.spec_seconds.values())
        # Cumulative stats aggregate per-call timings.
        assert runner.stats.sim_seconds == pytest.approx(stats.sim_seconds)
        # A fully cached rerun simulates nothing and times nothing new.
        runner.run(specs)
        assert runner.last_stats.simulated == 0
        assert runner.last_stats.sim_seconds == 0

    def test_declarative_spec_builds_its_own_trace(self):
        spec = ExperimentSpec(
            "tpcc-1", scale="smoke", seed=7, config=SimConfig(variant="base")
        )
        (result,) = Runner().run([spec])
        assert result.variant == "base"
        assert result.threads_completed > 0

    def test_results_align_with_input_order(self):
        specs = [smoke_spec(v, label=v) for v in ("slicc", "base", "steps")]
        results = Runner().run(specs)
        assert [r.variant for r in results] == ["slicc", "base", "steps"]

    def test_duplicate_specs_simulated_once(self):
        spec = smoke_spec("base")
        runner = Runner()
        results = runner.run([spec, spec, spec])
        assert runner.last_stats.simulated == 1
        assert runner.last_stats.cached == 2
        assert results[0] == results[1] == results[2]

    def test_explicit_default_thread_count_is_the_same_run(self, monkeypatch):
        """A spec that names its scale's default thread count replays the
        trace of one that leaves it None: one key, one trace build, one
        simulation."""
        from repro.exp import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        builds = []
        real = runner_mod.standard_trace

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "standard_trace", counting)
        implicit = smoke_spec("slicc-sw")
        explicit = replace(implicit, n_threads=DEFAULT_THREADS[ScalePreset.SMOKE])
        runner = Runner()
        runner.run([implicit, explicit])
        assert len(builds) == 1
        assert runner.last_stats.simulated == 1
        assert runner.last_stats.cached == 1

    def test_store_serves_second_invocation(self, monkeypatch):
        from repro.exp import runner as runner_mod

        store = ResultStore()
        first = Runner(store=store)
        second = Runner(store=store)
        spec = smoke_spec("base")
        a = first.run([spec])
        monkeypatch.setattr(runner_mod, "_TRACES", {})
        builds = []
        monkeypatch.setattr(runner_mod, "_build_trace", builds.append)
        b = second.run([spec])  # cache hit: builds no trace at all
        assert second.last_stats.simulated == 0
        assert second.last_stats.cached == 1
        assert builds == []
        assert a == b

    def test_persistent_store_across_processes_shape(
        self, tmp_path, backend="jsonl"
    ):
        spec = smoke_spec("base")
        store = ResultStore(tmp_path, backend=backend)
        Runner(store=store).run([spec])
        rerun = Runner(store=ResultStore(tmp_path))
        (result,) = rerun.run([spec])
        assert rerun.last_stats.simulated == 0
        assert result.variant == "base"

    def test_persistent_store_across_processes_shape_sqlite(self, tmp_path):
        self.test_persistent_store_across_processes_shape(tmp_path, "sqlite")

    @pytest.mark.skipif(
        sys.platform != "linux", reason="the pre-fork pass needs fork"
    )
    def test_pooled_run_compiles_kernels_before_fork(self, monkeypatch):
        """The parent fills the kernel memo that forked workers inherit,
        from the configs alone: it constructs no ReplayEngine."""
        from repro.sim import specialize
        from repro.sim.engine import ReplayEngine

        parent = os.getpid()
        parent_engines = []
        init = ReplayEngine.__init__

        def tracking_init(self, *args, **kwargs):
            if os.getpid() == parent:
                parent_engines.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReplayEngine, "__init__", tracking_init)
        specialize.clear_cache()
        specs = [smoke_spec(variant) for variant in ("base", "slicc", "nextline")]
        Runner(jobs=2).run(specs)
        assert parent_engines == []
        assert set(specialize._KERNEL_CACHE) == {
            specialize.kernel_spec(spec.config) for spec in specs
        }


class TestSweepEquivalence:
    """Acceptance: the 20-point Figure 7 grid through the Runner with
    jobs=4 must be byte-identical to the seed's serial implementation,
    and a repeat must be served entirely from the store."""

    def test_grid_matches_serial_and_caches(self, smoke_tpcc):
        reference = [result_to_json(r) for r in serial_fillup(smoke_tpcc)]
        assert len(reference) == 21  # grid + baseline

        specs = fillup_grid()
        runner = Runner(store=ResultStore(), jobs=4)
        results = runner.run(specs)
        assert [result_to_json(r) for r in results] == reference
        assert runner.last_stats.simulated == 21

        again = runner.run(specs)
        assert [result_to_json(r) for r in again] == reference
        assert runner.last_stats.simulated == 0  # all 21 from the store
        assert runner.last_stats.cached == 21

    def test_back_to_back_sweeps_share_one_baseline(self):
        """Satellite: a fill-up grid and a dilution grid on the same
        trace must run variant='base' exactly once."""
        store = ResultStore()
        runner = Runner(store=store)
        base = smoke_spec("slicc-sw")
        for axes in (
            {"slicc.fill_up_t": (128, 256), "slicc.dilution_t": (0,)},
            {"slicc.dilution_t": (5, 10)},
        ):
            specs = grid(base, axes)
            runner.run([base.baseline()] + specs)
        base_runs = [r for r in store.results() if r.variant == "base"]
        assert len(base_runs) == 1


class TestDeterminism:
    """Satellite: the same spec hash yields byte-identical result JSON
    whatever the degree of parallelism."""

    def test_jobs1_and_jobs4_byte_identical(self):
        specs = grid(
            smoke_spec("slicc-sw"),
            {
                "variant": ["slicc", "slicc-sw"],
                "slicc.dilution_t": [5, 10],
            },
        )
        serial = Runner(jobs=1).run(specs)
        parallel = Runner(jobs=4).run(specs)
        for a, b in zip(serial, parallel):
            assert result_to_json(a) == result_to_json(b)

    def test_declarative_jobs_determinism(self):
        base = ExperimentSpec("tpcc-1", scale="smoke", seed=3)
        specs = grid(base, {"variant": ["base", "nextline", "slicc"]})
        serial = Runner(jobs=1).run(specs)
        parallel = Runner(jobs=4).run(specs)
        for a, b in zip(serial, parallel):
            assert result_to_json(a) == result_to_json(b)

    def test_poison_spec_fails_alone_and_rest_persist(
        self, tmp_path, monkeypatch, backend="jsonl"
    ):
        """A spec that keeps raising fails only its own row: the rest of
        the sweep completes, persists, and the loss is reported as a
        SweepFailure afterwards."""
        from repro.errors import SweepFailure
        from repro.exp import runner as runner_mod

        real = runner_mod._run_spec
        poison = {"on": True}

        def flaky(spec, attempt=0):
            if poison["on"] and spec.variant == "slicc":
                raise RuntimeError("poisoned")
            return real(spec, attempt)

        monkeypatch.setattr(runner_mod, "_run_spec", flaky)
        store = ResultStore(tmp_path, backend=backend)
        specs = [smoke_spec(v) for v in ("base", "slicc", "steps")]
        runner = Runner(store=store, retries=1, backoff=0.01)
        with pytest.raises(SweepFailure) as excinfo:
            runner.run(specs)
        failure = excinfo.value
        assert len(failure.failures) == 1
        assert failure.failures[0].kind == "error"
        assert "poisoned" in failure.failures[0].error
        assert failure.failures[0].attempts == 2  # first try + 1 retry
        assert [r is not None for r in failure.results] == [True, False, True]
        assert runner.last_stats.failed == 1
        assert runner.last_stats.retried == 1
        assert runner.last_stats.simulated == 2
        # The two good rows persisted; the failure is recorded but never
        # served as a cache hit, so a rerun retries exactly the poisoned
        # spec.
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 2
        failed_key = specs[1].key()
        assert reloaded.failure_info(failed_key)["kind"] == "error"
        poison["on"] = False
        rerun = Runner(store=reloaded, retries=0)
        results = rerun.run(specs)
        assert rerun.last_stats.simulated == 1
        assert rerun.last_stats.cached == 2
        assert results[1].variant == "slicc"
        assert reloaded.failure_info(failed_key) is None

    def test_poison_spec_fails_alone_and_rest_persist_sqlite(
        self, tmp_path, monkeypatch
    ):
        self.test_poison_spec_fails_alone_and_rest_persist(
            tmp_path, monkeypatch, "sqlite"
        )

    def test_parent_process_does_not_hoard_traces(self, monkeypatch):
        """A campaign never holds idle traces past the records budget:
        with room for one smoke trace, runs on three traces leave the
        last run's trace and the one idle trace used before it."""
        from repro.exp import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        specs = [
            ExperimentSpec(
                workload, scale="smoke", seed=11, config=SimConfig(variant="base")
            )
            for workload in ("tpce", "mapreduce", "tpcc-1")
        ]
        budget = 12_000  # one smoke trace of these: 8,796-11,880 records
        monkeypatch.setattr(runner_mod, "_IDLE_TRACE_RECORDS", budget)
        for spec in specs:
            Runner(jobs=1).run([spec])
            *idle, last = runner_mod._TRACES
            assert last == spec.trace_key()
            assert sum(
                runner_mod._TRACES[key].total_records for key in idle
            ) <= budget
        assert list(runner_mod._TRACES) == [
            specs[1].trace_key(),
            specs[2].trace_key(),
        ]

    def test_traces_carry_over_between_runs(self, monkeypatch):
        """A later run() reuses the traces the table holds and builds
        only the new ones. Idle traces within the budget carry over
        (every smoke trace fits the default); past it, they are
        released before a build."""
        import gc
        import weakref

        from repro.exp import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        built = []
        real = runner_mod.standard_trace

        def counting(*args, **kwargs):
            trace = real(*args, **kwargs)
            built.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(runner_mod, "standard_trace", counting)

        def spec(workload, variant):
            return ExperimentSpec(
                workload,
                scale="smoke",
                seed=5,
                config=SimConfig(variant=variant),
            )

        runner = Runner(jobs=1)
        runner.run([spec("tpcc-1", "base"), spec("tpce", "base")])
        assert len(built) == 2
        # tpcc-1 is needed again (new variant), mapreduce is new, and
        # tpce stays within the budget.
        runner.run([spec("tpcc-1", "slicc"), spec("mapreduce", "base")])
        assert len(built) == 3
        gc.collect()
        assert all(ref() is not None for ref in built)
        # With no budget, mapreduce is reused and every other trace is
        # released before phased is built.
        monkeypatch.setattr(runner_mod, "_IDLE_TRACE_RECORDS", 0)
        runner.run([spec("phased", "base"), spec("mapreduce", "slicc")])
        assert len(built) == 4
        gc.collect()
        assert [ref() is not None for ref in built] == [
            False, False, False, True
        ]

    def test_interleaved_specs_replay_trace_by_trace(self, monkeypatch):
        """Specs given as A B C A B C replay as A A B B C C: with no
        budget for idle traces, each trace is built once and no other
        trace is alive at a build, with the same results as at the
        default budget."""
        import gc
        import weakref

        from repro.exp import runner as runner_mod

        specs = [
            ExperimentSpec(
                workload, scale="smoke", seed=5, config=SimConfig(variant=variant)
            )
            for variant in ("base", "slicc")
            for workload in ("tpcc-1", "tpce", "mapreduce")
        ]
        monkeypatch.setattr(runner_mod, "_TRACES", {})
        reference = [result_to_json(r) for r in Runner(jobs=1).run(specs)]

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        monkeypatch.setattr(runner_mod, "_IDLE_TRACE_RECORDS", 0)
        built, refs, alive_at_build = [], [], []
        real = runner_mod._build_trace

        def spy(spec):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in refs))
            trace = real(spec)
            built.append(spec.workload)
            refs.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(runner_mod, "_build_trace", spy)
        results = Runner(jobs=1).run(specs)
        assert built == ["tpcc-1", "tpce", "mapreduce"]
        assert alive_at_build == [0, 0, 0]
        assert [result_to_json(r) for r in results] == reference

    def test_held_traces_replay_first(self, monkeypatch):
        """A run that needs traces A and B, with B held, builds only A
        and simulates B's specs first, each trace's in input order."""
        from repro.exp import runner as runner_mod

        def spec(workload, variant):
            return ExperimentSpec(
                workload, scale="smoke", seed=5, config=SimConfig(variant=variant)
            )

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        runner = Runner(jobs=1)
        runner.run([spec("tpce", "base")])
        builds, simulated = [], []
        real_build, real_run = runner_mod._build_trace, runner_mod._run_spec

        def build(spec):
            builds.append(spec.workload)
            return real_build(spec)

        def run(spec, attempt=0):
            simulated.append((spec.workload, spec.variant))
            return real_run(spec, attempt)

        monkeypatch.setattr(runner_mod, "_build_trace", build)
        monkeypatch.setattr(runner_mod, "_run_spec", run)
        specs = [
            spec("tpcc-1", "base"),
            spec("tpce", "slicc"),
            spec("tpcc-1", "slicc"),
            spec("tpce", "nextline"),
        ]
        results = runner.run(specs)
        assert builds == ["tpcc-1"]
        assert simulated == [
            ("tpce", "slicc"),
            ("tpce", "nextline"),
            ("tpcc-1", "base"),
            ("tpcc-1", "slicc"),
        ]
        assert [(r.workload, r.variant) for r in results] == [
            (s.workload, s.variant) for s in specs
        ]

    @pytest.mark.skipif(
        sys.platform != "linux", reason="workers inherit the spy under fork"
    )
    def test_pooled_run_builds_past_the_budget_in_workers(
        self, tmp_path, monkeypatch
    ):
        """With no budget for idle traces, a pooled run builds ahead
        only its first trace: the workers build every other one
        themselves, and the results equal a one-job run's."""
        from repro.exp import runner as runner_mod

        specs = [
            ExperimentSpec(
                workload, scale="smoke", seed=5, config=SimConfig(variant=variant)
            )
            for variant in ("base", "slicc")
            for workload in ("tpcc-1", "tpce", "mapreduce")
        ]
        monkeypatch.setattr(runner_mod, "_IDLE_TRACE_RECORDS", 0)
        monkeypatch.setattr(runner_mod, "_TRACES", {})
        serial = [result_to_json(r) for r in Runner(jobs=1).run(specs)]

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        log = tmp_path / "builds"
        real = runner_mod._build_trace

        def logged(spec):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {spec.workload}\n")
            return real(spec)

        monkeypatch.setattr(runner_mod, "_build_trace", logged)
        pooled = Runner(jobs=2).run(specs)
        assert [result_to_json(r) for r in pooled] == serial
        builds = [line.split() for line in log.read_text().splitlines()]
        parent = str(os.getpid())
        assert [w for pid, w in builds if pid == parent] == ["tpcc-1"]
        assert {w for pid, w in builds if pid != parent} == {
            "tpce", "mapreduce"
        }

    def test_cached_run_keeps_the_carry(self, monkeypatch):
        """A run() that simulates nothing releases no carried trace: a
        run, a fully cached run and a run on the same trace build it
        once."""
        from repro.exp import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_TRACES", {})
        builds = []
        real = runner_mod._build_trace

        def counting(spec):
            builds.append(spec.trace_key())
            return real(spec)

        monkeypatch.setattr(runner_mod, "_build_trace", counting)

        def spec(variant):
            return ExperimentSpec(
                "tpcc-1", scale="smoke", seed=5, config=SimConfig(variant=variant)
            )

        runner = Runner(jobs=1)
        runner.run([spec("base")])
        runner.run([spec("base")])
        assert runner.last_stats.simulated == 0
        runner.run([spec("slicc")])
        assert runner.last_stats.simulated == 1
        assert len(builds) == 1
