"""Unit tests for the hot-path mechanisms and the replay kernel.

The golden-equivalence suite proves the full engine is unchanged
end-to-end; these tests pin the individual mechanisms — the
allocation-free cache access, the age-counter LRU backend, the
transposed bloom store — against small hand-checkable scenarios, and
the generated replay kernel (``repro.sim.specialize``) against the
``_process_instruction`` / ``_process_data`` reference path on every
arm it emits (plain-LRU fills and evictions, the next-line prefetcher,
the SLICC and STEPS trackers), and the rule that sends the miss
classifiers, the banked NUCA L2, the migration data prefetcher and
non-LRU L1s to the reference path instead.
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


#: Small plain-LRU L1s: eviction pressure on both generated fill arms.
_SMALL_L1S = SystemParams(
    l1i=CacheParams(size_bytes=8 * 1024, assoc=2),
    l1d=CacheParams(size_bytes=4 * 1024, assoc=8),
)

#: Low tracker thresholds: SLICC migrates and STEPS switches often.
_LOW_THRESHOLDS = SliccParams(fill_up_t=64, matched_t=2, dilution_t=3)

#: Four cores for eight smoke threads: STEPS has peers queued to switch
#: to (on sixteen cores each thread has a core of its own).
_FOUR_CORES = SystemParams(n_cores=4, torus_width=2)

#: Configurations on the axes the generator still specialises or binds
#: at run time — the policy, the quantum, plain-LRU geometry and the
#: SLICC thresholds — each of which runs a generated kernel: the
#: next-line prefetcher (consume/issue/evict), short quanta (more
#: flushes and dispatches), small L1s under the prefetcher's installs
#: and under SLICC's bypass and bloom evictions, and the tracker arms
#: under frequent migrations and context switches.
FAST_PATH_CONFIGS = (
    ("nextline", {}),
    ("slicc-quantum-7", {"variant": "slicc", "quantum": 7}),
    ("base-small-l1s", {"variant": "base", "system": _SMALL_L1S}),
    ("nextline-small-l1s", {"system": _SMALL_L1S}),
    ("slicc-small-l1s", {"variant": "slicc", "system": _SMALL_L1S}),
    ("slicc-sw-low-thresholds", {"variant": "slicc-sw", "slicc": _LOW_THRESHOLDS}),
    (
        "steps-low-thresholds",
        {
            "variant": "steps",
            "quantum": 20,
            "slicc": _LOW_THRESHOLDS,
            "system": _FOUR_CORES,
        },
    ),
)

#: Configurations with an option the generated record arms leave out —
#: the miss classifiers, the banked NUCA L2, the migration data
#: prefetcher, a non-LRU L1 — alone and stacked on the SLICC/STEPS
#: tracker paths. Each takes the reference path; the golden pins hold
#: its results.
REFERENCE_PATH_CONFIGS = (
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


def _config(kwargs: dict) -> SimConfig:
    return SimConfig(**{"variant": "nextline", **kwargs})


class _ReachedReference(Exception):
    """A record reached ``_process_instruction`` or ``_process_data``."""


def _stop_at_reference(engine: ReplayEngine) -> ReplayEngine:
    """Make the first record that reaches the reference path end the run
    with :class:`_ReachedReference`."""

    def reached(*args):
        raise _ReachedReference

    engine._process_instruction = engine._process_data = reached
    return engine


def _run(trace, kwargs, reference: bool = False) -> str:
    engine = ReplayEngine(trace, _config(kwargs), reference=reference)
    return result_to_json(engine.run())


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
        assert _run(matrix_trace, kwargs) == _run(
            matrix_trace, kwargs, reference=True
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
        assert _run(trace, kwargs) == _run(trace, kwargs, reference=True)

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
        assert _run(trace, kwargs) == _run(trace, kwargs, reference=True)


class TestFastPathCoverage:
    @pytest.mark.parametrize(
        "name,kwargs",
        FAST_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS],
    )
    def test_every_config_is_fast(self, matrix_trace, name, kwargs):
        """No record of a FAST_PATH_CONFIGS row reaches the reference
        path, so the matrix above compares two implementations."""
        engine = ReplayEngine(matrix_trace, _config(kwargs))
        result = _stop_at_reference(engine).run()
        assert result.threads_completed == len(matrix_trace.threads)


class TestKernelRouting:
    """Which configurations get a generated kernel
    (:func:`repro.sim.specialize.kernel_spec`)."""

    def test_registry_runs_five_generated_kernels(self):
        """Every spec of every registered figure, at every scale, runs a
        generated kernel. A figure that brings in a reference-path
        option fails here, not as a slower benchmark median."""
        from repro.exp import select_figures

        specs = {}
        for scale in ScalePreset:
            for figure in select_figures():
                for spec in figure.specs(scale):
                    specs.setdefault(kernel_spec(spec.config), spec)
        slow = [spec for ks, spec in specs.items() if ks.reference]
        assert not slow, f"registry specs on the reference path: {slow}"
        assert len(specs) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"collect_miss_classes": True},
            {"model_l2_capacity": True},
            {"variant": "slicc", "data_prefetch_n": 4},
            {"system": _l1_policies(l1i="srrip")},
            {"system": _l1_policies(l1d="drrip")},
        ],
        ids=["classify", "nuca", "slicc-dp", "srrip-l1i", "drrip-l1d"],
    )
    def test_option_takes_reference_path(self, matrix_trace, kwargs):
        """Each option alone sends the run's records to
        ``_process_instruction`` / ``_process_data``."""
        config = SimConfig(**{"variant": "base", **kwargs})
        assert kernel_spec(config).reference
        engine = _stop_at_reference(ReplayEngine(matrix_trace, config))
        with pytest.raises(_ReachedReference):
            engine.run()

    def test_data_prefetch_without_migration_stays_generated(
        self, matrix_trace
    ):
        """``base`` never migrates, so the engine builds no data
        prefetcher and the run keeps its generated kernel."""
        config = SimConfig(variant="base", data_prefetch_n=4)
        assert not kernel_spec(config).reference
        engine = ReplayEngine(matrix_trace, config)
        assert engine.data_prefetcher is None
        _stop_at_reference(engine).run()


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
        assert _run(clone, kwargs) == _run(trace, kwargs)

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
        assert _run(trace, kwargs) == _run(trace, kwargs, reference=True)


class TestKernelSelection:
    def test_auto_runs_generated_kernel(self, matrix_trace):
        specialize.clear_cache()
        config = SimConfig(variant="slicc")
        _stop_at_reference(ReplayEngine(matrix_trace, config)).run()
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
        config = SimConfig(variant="slicc")
        result = ReplayEngine(matrix_trace, config, reference=True).run()
        assert calls == {"i": result.i_accesses, "d": result.d_accesses}
        assert calls["i"] + calls["d"] == matrix_trace.total_records

    def test_unknown_kernel_rejected(self):
        """The path is an engine argument, not a config field: a config
        or an override that names ``kernel`` is refused."""
        from repro.exp.spec import ExperimentSpec, with_overrides

        spec = ExperimentSpec("tpcc-1", scale="smoke")
        for name in ("auto", "reference", "inline", "specialized", "fallback"):
            with pytest.raises(TypeError):
                SimConfig(kernel=name)
            with pytest.raises(ConfigurationError, match="kernel"):
                with_overrides(spec, {"kernel": name})

    def test_kernel_excluded_from_spec_keys(self):
        """A spec cannot name the path, so no key can tell which one
        ran, and a persisted ``reference`` rebuilds onto the same key."""
        from repro.exp.spec import ExperimentSpec, spec_from_dict

        spec = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc"))
        payload = spec.to_dict()
        assert "kernel" not in payload["config"]
        payload["config"]["kernel"] = "reference"
        assert spec_from_dict(payload).key() == spec.key()


class TestSpecializedSelection:
    def test_specialized_excluded_from_spec_keys(self):
        """A persisted spec naming a retired kernel ("specialized", from
        queues written before the kernels collapsed) rebuilds without it,
        onto the same store key."""
        from repro.exp.spec import ExperimentSpec, spec_from_dict

        spec = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc"))
        payload = spec.to_dict()
        payload["config"]["kernel"] = "specialized"
        rebuilt = spec_from_dict(payload)
        assert rebuilt.config == spec.config
        assert rebuilt.key() == spec.key()


class TestSpecializedGeneration:
    def test_generated_source_deterministic(self):
        for kwargs, reference in (
            ({"variant": "slicc"}, False),
            ({"variant": "steps", "collect_miss_classes": True}, False),
            ({"variant": "nextline"}, False),
            ({"variant": "slicc-sw"}, True),
        ):
            spec = kernel_spec(SimConfig(**kwargs), reference)
            first = specialize.generate_source(spec)
            assert first == specialize.generate_source(spec)
            assert spec == kernel_spec(SimConfig(**kwargs), reference)
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
        FAST_PATH_CONFIGS + REFERENCE_PATH_CONFIGS,
        ids=[name for name, _ in FAST_PATH_CONFIGS + REFERENCE_PATH_CONFIGS],
    )
    def test_spec_matches_engine_structure(self, matrix_trace, name, kwargs):
        """kernel_spec(config) needs no engine, yet agrees with the
        machinery the engine builds for the same config: the reference
        path exactly when the engine builds something the generated
        record arms leave out."""
        config = _config(kwargs)
        spec = kernel_spec(config)
        engine = ReplayEngine(matrix_trace, config)
        machine = engine.machine
        assert spec.slicc == (engine.agents is not None)
        assert spec.steps == (engine.steps_agents is not None)
        assert spec.nextline == (engine.prefetchers is not None)
        assert spec.reference == (
            engine.i_classifiers is not None
            or machine.nuca is not None
            or engine.data_prefetcher is not None
            or type(machine.l1i[0].policy) is not LruPolicy
            or type(machine.l1d[0].policy) is not LruPolicy
        )

    def test_kernel_memoised_per_spec(self):
        spec = kernel_spec(SimConfig(variant="slicc"))
        assert specialize.kernel_for(spec) is specialize.kernel_for(spec)

    def test_linecache_serves_compiled_kernel(self):
        """Compiling a kernel registers its source under the kernel's
        filename, where tracebacks and ``inspect`` look for it."""
        import inspect
        import linecache

        spec = kernel_spec(SimConfig(variant="slicc"))
        filename = f"<specialized:{specialize.signature(spec)}>"
        specialize.clear_cache()
        linecache.cache.pop(filename, None)
        kernel = specialize.kernel_for(spec)
        assert kernel.__code__.co_filename == filename
        linecache.checkcache()  # as traceback formatting does
        lines = specialize.generate_source(spec).splitlines(keepends=True)
        assert linecache.getlines(filename) == lines
        first = kernel.__code__.co_firstlineno
        assert linecache.getline(filename, first) == "def kernel(engine):\n"
        assert inspect.getsource(kernel) == "".join(lines[first - 1 :])
