"""Unit tests for the hot-path mechanisms and the replay kernel.

The golden-equivalence suite proves the full engine is unchanged
end-to-end; these tests pin the individual mechanisms — the
allocation-free cache access, the age-counter LRU backend, the
transposed bloom store — against small hand-checkable scenarios, and
the generated replay kernel (``repro.sim.specialize``) against the
``_process_instruction`` / ``_process_data`` reference path on every
arm it emits: the next-line prefetcher, the miss classifiers, the
banked NUCA L2, the migration data prefetcher and non-LRU L1s.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.policies.base import make_policy
from repro.cache.policies.lru import LruPolicy
from repro.core.signature import BloomSignature, SignatureSet
from repro.errors import ConfigurationError
from repro.exp.store import result_to_json
from repro.params import CacheParams, ScalePreset, SliccParams, SystemParams
from repro.sched import policy_names
from repro.sim import specialize
from repro.sim.engine import ReplayEngine, SimConfig
from repro.sim.machine import Machine
from repro.sim.specialize import kernel_spec
from repro.sim.tlb import PAGE_SHIFT
from repro.workloads import standard_trace
from repro.workloads.trace import KIND_INSTR, ThreadTrace, Trace


@pytest.fixture
def tiny_params():
    return CacheParams(size_bytes=4 * 1024, assoc=4, policy="lru")


class TestAccessFast:
    def test_hit_and_miss_returns(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        assert cache.access_fast(5) is False
        assert cache.access_fast(5) is True

    def test_last_victim_matches_access_wrapper(self, tiny_params):
        fast = SetAssociativeCache(tiny_params)
        slow = SetAssociativeCache(tiny_params)
        n_sets = tiny_params.n_sets
        # Fill one set past capacity so evictions happen.
        blocks = [i * n_sets for i in range(6)]
        for block in blocks:
            hit_fast = fast.access_fast(block)
            result = slow.access(block)
            assert hit_fast == result.hit
            if not result.hit:
                assert fast.last_victim == result.victim

    def test_bypass_sets_no_victim(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        n_sets = tiny_params.n_sets
        for i in range(4):
            cache.access_fast(i * n_sets)
        assert cache.access_fast(4 * n_sets, fill=False) is False
        assert cache.last_victim is None
        # The set was not disturbed.
        assert all(cache.probe(i * n_sets) for i in range(4))


class _ListLru:
    """Reference list-based LRU family (the pre-PR implementation)."""

    def __init__(self, n_sets, assoc, insert_at):
        self._order = [[] for _ in range(n_sets)]
        self._insert_at = insert_at  # "mru" or "lru"
        self._fills = 0

    def on_hit(self, s, w):
        self._order[s].remove(w)
        self._order[s].append(w)

    def on_fill(self, s, w):
        order = self._order[s]
        if w in order:
            order.remove(w)
        if self._insert_at == "mru":
            order.append(w)
        else:
            order.insert(0, w)

    def choose_victim(self, s):
        return self._order[s][0]


@pytest.mark.parametrize("policy_name,insert_at", [("lru", "mru"), ("lip", "lru")])
def test_age_counters_match_list_reference(policy_name, insert_at):
    """Random hit/fill/victim interleavings agree with the list form."""
    n_sets, assoc = 4, 4
    rng = random.Random(13)
    aged = make_policy(policy_name, n_sets, assoc)
    ref = _ListLru(n_sets, assoc, insert_at)
    resident: dict[int, set[int]] = {s: set() for s in range(n_sets)}
    for _ in range(2000):
        s = rng.randrange(n_sets)
        if len(resident[s]) < assoc:
            w = min(set(range(assoc)) - resident[s])
            resident[s].add(w)
            aged.on_fill(s, w)
            ref.on_fill(s, w)
        elif rng.random() < 0.5:
            w = rng.choice(sorted(resident[s]))
            aged.on_hit(s, w)
            ref.on_hit(s, w)
        else:
            assert aged.choose_victim(s) == ref.choose_victim(s)
            w = ref.choose_victim(s)
            # Refill the victim way, as the cache would.
            aged.on_fill(s, w)
            ref.on_fill(s, w)


def test_recency_order_reports_lru_first():
    policy = make_policy("lru", 1, 4)
    for way in (2, 0, 3, 1):
        policy.on_fill(0, way)
    policy.on_hit(0, 2)
    assert policy.recency_order(0) == [0, 3, 1, 2]
    assert policy.choose_victim(0) == 0


class TestTransposedSignatures:
    def test_shared_store_keeps_per_core_bits_separate(self, tiny_params):
        shared = SignatureSet(64)
        c0 = SetAssociativeCache(tiny_params)
        c1 = SetAssociativeCache(tiny_params)
        s0 = BloomSignature(64, c0, shared=shared, core=0)
        s1 = BloomSignature(64, c1, shared=shared, core=1)
        s0.insert(5)
        assert s0.probe(5) and not s1.probe(5)
        s1.insert(5)
        assert shared.masks[5] == 0b11
        s0.on_evict(5)  # block 5 not resident in c0 -> bit clears
        assert not s0.probe(5) and s1.probe(5)

    def test_standalone_signature_still_works(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        sig = BloomSignature(64, cache)
        sig.insert(7)
        assert sig.probe(7)
        assert sig.popcount() == 1
        sig.rebuild()
        assert sig.popcount() == 0

    def test_presence_mask_matches_per_core_probes(self):
        system = SystemParams()
        machine = Machine(system, slicc=SliccParams(), with_signatures=True)
        block = 42
        for core in (1, 3, 6):
            machine.signature_insert(core, block)
        cores = list(range(system.n_cores))
        cores_mask = sum(1 << c for c in cores)
        expected = 0
        for core in cores:
            if core != 1 and machine.signatures[core].probe(block):
                expected |= 1 << core
        assert machine.presence_mask(block, 1, cores_mask) == expected
        assert machine.presence_mask(block, 1, cores_mask) == (1 << 3) | (1 << 6)

    def test_mismatched_shared_bits_rejected(self, tiny_params):
        cache = SetAssociativeCache(tiny_params)
        with pytest.raises(ConfigurationError):
            BloomSignature(128, cache, shared=SignatureSet(64))


# ----------------------------------------------------------------------
# The generated kernel vs the reference path
# ----------------------------------------------------------------------


def _l1_policies(l1i: str = "lru", l1d: str = "lru") -> SystemParams:
    system = SystemParams()
    return dataclasses.replace(
        system,
        l1i=dataclasses.replace(system.l1i, policy=l1i),
        l1d=dataclasses.replace(system.l1d, policy=l1d),
    )


#: One configuration per generated arm of the quantum loop, plus the
#: combinations: next-line prefetcher (consume/issue/evict), I+D miss
#: classifiers (shadow LRU + three-C counts), banked NUCA (both record
#: kinds), the migration data prefetcher (history/pending), non-LRU L1s
#: (the generic replacement arms, alone, under the prefetcher's installs
#: and under SLICC's bypass and bloom evictions), and each of them
#: stacked on the SLICC/STEPS tracker paths.
FAST_PATH_CONFIGS = (
    ("nextline", {}),
    ("base-classify", {"variant": "base", "collect_miss_classes": True}),
    ("pif-classify", {"variant": "pif", "collect_miss_classes": True}),
    ("slicc-classify", {"variant": "slicc", "collect_miss_classes": True}),
    ("base-nuca", {"variant": "base", "model_l2_capacity": True}),
    ("nextline-nuca", {"variant": "nextline", "model_l2_capacity": True}),
    ("slicc-dp", {"variant": "slicc", "data_prefetch_n": 4}),
    (
        "slicc-everything",
        {
            "variant": "slicc",
            "model_l2_capacity": True,
            "data_prefetch_n": 4,
            "collect_miss_classes": True,
        },
    ),
    (
        "steps-nuca-classify",
        {
            "variant": "steps",
            "model_l2_capacity": True,
            "collect_miss_classes": True,
        },
    ),
    (
        "slicc-sw-nuca-classify",
        {
            "variant": "slicc-sw",
            "model_l2_capacity": True,
            "collect_miss_classes": True,
        },
    ),
    ("base-srrip-l1i", {"variant": "base", "system": _l1_policies(l1i="srrip")}),
    ("base-drrip-l1d", {"variant": "base", "system": _l1_policies(l1d="drrip")}),
    ("nextline-lip-l1i", {"system": _l1_policies(l1i="lip")}),
    (
        "slicc-dip-l1i-brrip-l1d",
        {"variant": "slicc", "system": _l1_policies(l1i="dip", l1d="brrip")},
    ),
    (
        "steps-bip-both",
        {"variant": "steps", "system": _l1_policies(l1i="bip", l1d="bip")},
    ),
)


@pytest.fixture(scope="module")
def matrix_trace():
    return standard_trace("tpcc-1", ScalePreset.SMOKE, seed=3)


def _config(kwargs: dict, kernel: str = "auto") -> SimConfig:
    return SimConfig(**{"variant": "nextline", **kwargs, "kernel": kernel})


def _forbid_reference(engine: ReplayEngine) -> ReplayEngine:
    """Make any record that reaches the reference path fail the run."""

    def forbidden(*args):
        raise AssertionError("a record took the reference path")

    engine._process_instruction = engine._process_data = forbidden
    return engine


def _run(trace, kwargs, kernel: str) -> str:
    return result_to_json(ReplayEngine(trace, _config(kwargs, kernel)).run())


def _one_thread(blocks) -> Trace:
    """A one-thread trace of instruction records on ``blocks``."""
    addr = np.array(list(blocks), dtype=np.int64)
    kind = np.full(len(addr), KIND_INSTR, dtype=np.int8)
    return Trace("hand", [ThreadTrace(0, 0, addr, kind)], 12, 0)


class TestFastVsFallbackMatrix:
    @pytest.mark.parametrize(
        "name,kwargs",
        FAST_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS],
    )
    def test_inline_matches_reference(self, matrix_trace, name, kwargs):
        assert _run(matrix_trace, kwargs, "auto") == _run(
            matrix_trace, kwargs, "reference"
        )

    def test_prefetch_install_eviction_drops_pending(self):
        """On a direct-mapped two-set L1-I, block 3's prefetch install
        evicts the still-pending prefetch of block 1; 1 is then demanded
        and hit, and that hit must consume no prefetch."""
        kwargs = {
            "variant": "nextline",
            "system": SystemParams(l1i=CacheParams(size_bytes=128, assoc=1)),
        }
        trace = _one_thread([0, 2, 1, 1])
        assert _run(trace, kwargs, "auto") == _run(trace, kwargs, "reference")

    def test_stay_resyncs_tracker_mirrors(self):
        """On a one-core machine every SLICC evaluation ends in STAY,
        which resets the trackers mid-quantum; the thread then refills
        the MC and must re-arm from the reset MSV."""
        kwargs = {
            "variant": "slicc",
            "system": SystemParams(n_cores=1, torus_width=1),
            "slicc": SliccParams(
                fill_up_t=2, matched_t=1, dilution_t=2, msv_window=4
            ),
        }
        trace = _one_thread(range(0, 40 * 64, 64))
        assert ReplayEngine(trace, _config(kwargs)).run().stay_decisions > 1
        assert _run(trace, kwargs, "auto") == _run(trace, kwargs, "reference")


class TestFastPathCoverage:
    def test_nuca_prefetcher_combo_takes_fast_path(self, matrix_trace):
        """Regression: a NUCA+prefetcher combination runs the generated
        fast arms, not the slow reference path."""
        engine = ReplayEngine(
            matrix_trace,
            SimConfig(variant="nextline", model_l2_capacity=True),
        )
        assert engine.prefetchers is not None
        assert engine.machine.nuca is not None
        _forbid_reference(engine).run()

    @pytest.mark.parametrize(
        "name,kwargs",
        FAST_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS],
    )
    def test_every_config_is_fast(self, matrix_trace, name, kwargs):
        engine = ReplayEngine(matrix_trace, _config(kwargs))
        result = _forbid_reference(engine).run()
        assert result.threads_completed == len(matrix_trace.threads)

    def test_nuca_bank_stats_flushed(self, matrix_trace):
        """The batched bank counters must land in the bank CacheStats by
        the time run() returns (the kernel only batches, never loses)."""
        fast = ReplayEngine(
            matrix_trace, SimConfig(variant="base", model_l2_capacity=True)
        )
        fast.run()
        ref = ReplayEngine(
            matrix_trace,
            SimConfig(variant="base", model_l2_capacity=True, kernel="reference"),
        )
        ref.run()
        fast_stats = fast.machine.nuca.stats()
        ref_stats = ref.machine.nuca.stats()
        assert fast_stats.accesses == ref_stats.accesses > 0
        assert fast_stats.misses == ref_stats.misses
        assert fast_stats.evictions == ref_stats.evictions


class TestReplayRecords:
    """The trace's shared ``(block, kind, page)`` records the kernel
    replays (``Trace.replay_records``)."""

    def test_records_are_the_arrays(self, matrix_trace):
        rows = matrix_trace.replay_records(PAGE_SHIFT)
        assert len(rows) == len(matrix_trace.threads)
        for thread, row in zip(matrix_trace.threads, rows):
            assert row == list(
                zip(
                    thread.addr.tolist(),
                    thread.kind.tolist(),
                    (thread.addr >> PAGE_SHIFT).tolist(),
                )
            )

    def test_equal_records_are_one_object(self, matrix_trace):
        """An equal ``(block, kind)`` is one tuple across threads, and an
        equal page one int."""
        first: dict = {}
        pages: dict = {}
        shared = set()
        for thread_id, row in enumerate(matrix_trace.replay_records(PAGE_SHIFT)):
            for record in row:
                seen_in, seen = first.setdefault(record[:2], (thread_id, record))
                assert seen is record
                assert pages.setdefault(record[2], record[2]) is record[2]
                if seen_in != thread_id:
                    shared.add(record)
        assert shared, "no record repeats across threads: the check is vacuous"

    def test_memoised_per_page_shift(self):
        trace = standard_trace("tpcc-1", ScalePreset.SMOKE, seed=3)
        rows = trace.replay_records(12)
        assert trace.replay_records(12) is rows
        other = trace.replay_records(13)
        assert other is not rows
        thread = trace.threads[0]
        assert [page for _, _, page in other[0]] == (thread.addr >> 13).tolist()

    def test_not_pickled_and_clone_replays_identically(self):
        import pickle

        trace = standard_trace("tpcc-1", ScalePreset.SMOKE, seed=3)
        trace.replay_records(PAGE_SHIFT)
        clone = pickle.loads(pickle.dumps(trace))
        assert "_replay_records" not in vars(clone)
        kwargs = {"variant": "slicc-sw"}
        assert _run(clone, kwargs, "auto") == _run(trace, kwargs, "auto")

    def test_bytes_kept_per_record(self):
        """Smoke tpcc-1's records keep under half the bytes per record of
        the three per-thread int lists they replaced (57 B): a record is
        one list slot plus its share of the shared tuples."""
        import tracemalloc

        # Warm numpy's lazily built state, which a one-off build would
        # otherwise be charged for.
        _one_thread(range(8)).replay_records(PAGE_SHIFT)
        trace = standard_trace("tpcc-1", ScalePreset.SMOKE, seed=1)
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace.replay_records(PAGE_SHIFT)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not outer:
                tracemalloc.stop()
        assert kept / trace.total_records < 24


KERNEL_MATRIX_WORKLOADS = ("tpcc-1", "webserve", "phased")


@pytest.fixture(scope="module")
def kernel_traces():
    return {
        workload: standard_trace(workload, ScalePreset.SMOKE, seed=3)
        for workload in KERNEL_MATRIX_WORKLOADS
    }


class TestKernelEquivalenceMatrix:
    """Every registered policy × three workloads: the generated kernel
    and the reference path are byte-identical."""

    @pytest.mark.parametrize("workload", KERNEL_MATRIX_WORKLOADS)
    @pytest.mark.parametrize("variant", sorted(policy_names()))
    def test_kernels_byte_identical(self, kernel_traces, workload, variant):
        trace = kernel_traces[workload]
        kwargs = {"variant": variant}
        assert _run(trace, kwargs, "auto") == _run(trace, kwargs, "reference")


class TestKernelSelection:
    def test_auto_runs_generated_kernel(self, matrix_trace):
        specialize.clear_cache()
        config = SimConfig(variant="slicc")
        _forbid_reference(ReplayEngine(matrix_trace, config)).run()
        spec = kernel_spec(config)
        assert not spec.reference
        assert list(specialize._KERNEL_CACHE) == [spec]

    def test_reference_routes_every_record(self, matrix_trace, monkeypatch):
        calls = {"i": 0, "d": 0}
        process_i = ReplayEngine._process_instruction
        process_d = ReplayEngine._process_data

        def count_i(self, *args):
            calls["i"] += 1
            return process_i(self, *args)

        def count_d(self, *args):
            calls["d"] += 1
            return process_d(self, *args)

        monkeypatch.setattr(ReplayEngine, "_process_instruction", count_i)
        monkeypatch.setattr(ReplayEngine, "_process_data", count_d)
        config = SimConfig(variant="slicc", kernel="reference")
        result = ReplayEngine(matrix_trace, config).run()
        assert calls == {"i": result.i_accesses, "d": result.d_accesses}
        assert calls["i"] + calls["d"] == matrix_trace.total_records

    def test_unknown_kernel_rejected(self):
        for name in ("vectorised", "inline", "batch", "specialized", "fallback"):
            with pytest.raises(ConfigurationError):
                SimConfig(kernel=name)

    def test_kernel_excluded_from_spec_keys(self):
        from repro.exp.spec import ExperimentSpec

        base = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc"))
        forced = ExperimentSpec(
            "tpcc-1", config=SimConfig(variant="slicc", kernel="reference")
        )
        assert base.key() == forced.key()


class TestSpecializedSelection:
    def test_specialized_excluded_from_spec_keys(self):
        """A persisted spec naming a retired kernel ("specialized", from
        queues written before the kernels collapsed) rebuilds onto the
        default kernel and the same store key."""
        from repro.exp.spec import ExperimentSpec, spec_from_dict

        spec = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc"))
        payload = spec.to_dict()
        payload["config"]["kernel"] = "specialized"
        rebuilt = spec_from_dict(payload)
        assert rebuilt.config.kernel == "auto"
        assert rebuilt.key() == spec.key()


class TestSpecializedGeneration:
    def test_generated_source_deterministic(self):
        for kwargs in (
            {"variant": "slicc"},
            {"variant": "steps", "collect_miss_classes": True},
            {"variant": "nextline", "model_l2_capacity": True},
            {"variant": "slicc", "system": _l1_policies(l1i="srrip")},
            {"variant": "slicc-sw", "kernel": "reference"},
        ):
            spec = kernel_spec(SimConfig(**kwargs))
            first = specialize.generate_source(spec)
            assert first == specialize.generate_source(spec)
            assert spec == kernel_spec(SimConfig(**kwargs))
            compile(first, "<test>", "exec")

    def test_spec_canonicalises_inapplicable_knobs(self):
        # Numeric knobs never fragment the kernel cache: thresholds,
        # quantum and geometry are read by the kernel at run time.
        base = kernel_spec(SimConfig(variant="slicc"))
        tuned = kernel_spec(
            SimConfig(
                variant="slicc",
                quantum=7,
                slicc=SliccParams(fill_up_t=64, matched_t=2, dilution_t=3),
                system=dataclasses.replace(SystemParams(), memory_latency=300),
            )
        )
        assert base == tuned
        # PIF's larger L1-I is still plain LRU: same kernel as base.
        assert kernel_spec(SimConfig(variant="pif")) == kernel_spec(SimConfig())

    @pytest.mark.parametrize(
        "name,kwargs",
        FAST_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS],
    )
    def test_spec_matches_engine_structure(self, matrix_trace, name, kwargs):
        """kernel_spec(config) needs no engine, yet agrees with the
        machinery the engine builds for the same config."""
        config = _config(kwargs)
        spec = kernel_spec(config)
        engine = ReplayEngine(matrix_trace, config)
        machine = engine.machine
        assert spec.slicc == (engine.agents is not None)
        assert spec.steps == (engine.steps_agents is not None)
        assert spec.nextline == (engine.prefetchers is not None)
        assert spec.classify == (engine.i_classifiers is not None)
        assert spec.nuca == (machine.nuca is not None)
        assert spec.data_prefetch == (engine.data_prefetcher is not None)
        assert spec.l1i_lru == (type(machine.l1i[0].policy) is LruPolicy)
        assert spec.l1d_lru == (type(machine.l1d[0].policy) is LruPolicy)

    def test_kernel_memoised_per_spec(self):
        spec = kernel_spec(SimConfig(variant="slicc"))
        assert specialize.kernel_for(spec) is specialize.kernel_for(spec)

    def test_dump_env_writes_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPECIALIZE_DUMP", str(tmp_path))
        spec = kernel_spec(SimConfig(variant="slicc"))
        specialize.kernel_for(spec)
        dumped = tmp_path / f"{specialize.signature(spec)}.py"
        assert dumped.exists()
        assert dumped.read_text() == specialize.generate_source(spec)
