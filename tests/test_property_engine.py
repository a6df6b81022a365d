"""Property-based integration tests on the replay engine.

Random miniature workloads, replayed under every variant, must preserve
the conservation invariants that hold regardless of scheduling: access
totals, completion counts, and determinism — and the generated replay
kernel must match the reference path on random configurations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.store import result_to_json
from repro.params import CacheParams, SliccParams, SystemParams
from repro.sched import policy_names
from repro.sim import SimConfig, simulate
from repro.sim.engine import ReplayEngine
from repro.sim.specialize import kernel_spec
from repro.workloads import (
    DataSpec,
    PathStep,
    TransactionTypeSpec,
    WorkloadSpec,
    generate_trace,
    layout_segments,
)

workload_params = st.fixed_dictionaries(
    {
        "n_segments": st.integers(min_value=1, max_value=4),
        "seg_blocks": st.integers(min_value=8, max_value=96),
        "n_types": st.integers(min_value=1, max_value=3),
        "path_len": st.integers(min_value=1, max_value=4),
        "n_threads": st.integers(min_value=2, max_value=10),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build_trace(p):
    segments = layout_segments([p["seg_blocks"]] * p["n_segments"])
    types = []
    for t in range(p["n_types"]):
        path = tuple(
            PathStep(seg_id=(t + i) % p["n_segments"], inner_iterations=1)
            for i in range(p["path_len"])
        )
        types.append(
            TransactionTypeSpec(type_id=t, name=f"t{t}", weight=1.0, path=path)
        )
    spec = WorkloadSpec(
        name="prop",
        segments=tuple(segments),
        txn_types=tuple(types),
        data=DataSpec(accesses_per_iblock=0.3),
    )
    return generate_trace(spec, n_threads=p["n_threads"], seed=p["seed"])


@settings(max_examples=15, deadline=None)
@given(workload_params)
def test_access_conservation_across_variants(p):
    """Scheduling moves accesses between cores but conserves totals."""
    trace = build_trace(p)
    base = simulate(trace, variant="base")
    for variant in ("slicc", "slicc-sw"):
        r = simulate(trace, variant=variant)
        assert r.i_accesses == base.i_accesses
        assert r.d_accesses == base.d_accesses
        assert r.threads_completed == len(trace.threads)
        assert r.instructions == base.instructions


@settings(max_examples=10, deadline=None)
@given(workload_params)
def test_engine_determinism(p):
    trace = build_trace(p)
    a = simulate(trace, variant="slicc")
    b = simulate(trace, variant="slicc")
    assert (a.cycles, a.i_misses, a.d_misses, a.migrations) == (
        b.cycles,
        b.i_misses,
        b.d_misses,
        b.migrations,
    )


@settings(max_examples=10, deadline=None)
@given(workload_params, st.integers(min_value=1, max_value=200))
def test_quantum_does_not_break_completion(p, quantum):
    """Any quantum size must still complete every thread."""
    trace = build_trace(p)
    r = simulate(trace, config=SimConfig(variant="slicc", quantum=quantum))
    assert r.threads_completed == len(trace.threads)


@settings(max_examples=10, deadline=None)
@given(workload_params)
def test_miss_bounds(p):
    """Misses can never exceed accesses; MPKI is finite and non-negative."""
    trace = build_trace(p)
    for variant in ("base", "nextline", "slicc"):
        r = simulate(trace, variant=variant)
        assert 0 <= r.i_misses <= r.i_accesses
        assert 0 <= r.d_misses <= r.d_accesses
        assert r.i_mpki >= 0 and r.d_mpki >= 0


def l1_params(draw):
    """A plain-LRU L1; the small geometries put the miniature workloads
    under eviction pressure."""
    return CacheParams(
        size_bytes=draw(st.sampled_from((2048, 8192, 32768))),
        assoc=draw(st.sampled_from((2, 4, 8))),
    )


@st.composite
def kernel_configs(draw):
    """A SimConfig drawn across every axis a generated kernel handles:
    the policy (its capability flags), plus the numeric knobs the kernel
    binds at run time (quantum, LRU L1 geometry, SLICC thresholds). Low
    fill-up thresholds saturate the MC within the miniature traces, so
    the SLICC/STEPS tracker arms run too. The options that take the
    reference path (miss classes, the NUCA L2, the data prefetcher, a
    non-LRU L1) are left at their defaults: drawn, they would compare
    the reference path with itself."""
    msv_window = draw(st.integers(min_value=1, max_value=32))
    return SimConfig(
        variant=draw(st.sampled_from(policy_names())),
        quantum=draw(st.integers(min_value=1, max_value=200)),
        system=SystemParams(l1i=l1_params(draw), l1d=l1_params(draw)),
        slicc=SliccParams(
            fill_up_t=draw(st.integers(min_value=1, max_value=64)),
            matched_t=draw(st.integers(min_value=1, max_value=8)),
            msv_window=msv_window,
            dilution_t=draw(st.integers(min_value=0, max_value=msv_window)),
            bloom_bits=draw(st.sampled_from((256, 2048))),
            thread_pool_factor=draw(st.integers(min_value=1, max_value=3)),
        ),
    )


@settings(max_examples=100, deadline=None)
@given(workload_params, kernel_configs())
def test_generated_kernel_matches_reference(p, config):
    """The generated kernel and the reference path agree byte for byte
    on random configurations — far beyond the golden pins' sliver of
    the config space."""
    assert not kernel_spec(config).reference
    trace = build_trace(p)
    fast = simulate(trace, config=config)
    reference = ReplayEngine(trace, config, reference=True).run()
    assert result_to_json(fast) == result_to_json(reference)
