"""Tests for parameter validation and the public package surface."""

import json

import pytest

import repro
from repro.cache.policies import policy_names as replacement_policy_names
from repro.cli import main
from repro.errors import ConfigurationError
from repro.params import (
    REPLACEMENT_POLICIES,
    CacheParams,
    ScalePreset,
    SliccParams,
    SystemParams,
)

#: Machine parameters accepted until construction-time validation: each
#: silently modelled something else or failed only inside ``simulate``.
NONSENSE = [
    ("cache", {"block_size": 32}),
    ("cache", {"hit_latency": -1}),
    ("cache", {"policy": "nope"}),
    ("system", {"memory_latency": -1}),
    ("system", {"l2_hit_latency": -5}),
    ("system", {"tlb_miss_cycles": -3}),
    ("system", {"instructions_per_iblock": 0}),
    ("system", {"torus_width": 0, "n_cores": 0}),
    ("system", {"prefetch_late_fraction": 1.5}),
]


NONSENSE_IDS = ["-".join(fields) for _, fields in NONSENSE]


def _build(kind, fields):
    return CacheParams(**fields) if kind == "cache" else SystemParams(**fields)


class TestSystemParams:
    def test_defaults_match_table2(self):
        s = SystemParams()
        assert s.n_cores == 16
        assert s.torus_width == 4
        assert s.l1i.size_bytes == 32 * 1024
        assert s.l1i.assoc == 8
        assert s.l1i.block_size == 64
        assert s.l2_hit_latency == 16

    def test_torus_core_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemParams(n_cores=16, torus_width=3)

    def test_overlap_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            SystemParams(load_overlap=1.5)


class TestMachineValidation:
    @pytest.mark.parametrize("kind,fields", NONSENSE, ids=NONSENSE_IDS)
    def test_nonsense_rejected_at_construction(self, kind, fields):
        with pytest.raises(ConfigurationError, match=next(iter(fields))):
            _build(kind, fields)

    @pytest.mark.parametrize(
        "kind,fields",
        [
            ("cache", {"hit_latency": 0}),
            ("system", {"memory_latency": 0, "l2_hit_latency": 0}),
            ("system", {"tlb_miss_cycles": 0, "migration_hop_cycles": 0}),
            ("system", {"n_cores": 1, "torus_width": 1}),
        ],
    )
    def test_zero_cycle_constants_stay_legal(self, kind, fields):
        params = _build(kind, fields)
        assert all(getattr(params, k) == v for k, v in fields.items())

    def test_policy_names_match_the_registry(self):
        assert sorted(REPLACEMENT_POLICIES) == replacement_policy_names()

    @pytest.mark.parametrize("kind,fields", NONSENSE, ids=NONSENSE_IDS)
    def test_exp_on_such_a_spec_exits_2(self, kind, fields, tmp_path, capsys):
        override = (
            {"system.l1i": fields}
            if kind == "cache"
            else {f"system.{k}": v for k, v in fields.items()}
        )
        specfile = tmp_path / "exp.json"
        specfile.write_text(
            json.dumps(
                {"workload": "tpcc-1", "scale": "smoke", "overrides": override}
            )
        )
        assert main(["exp", str(specfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(fields)) in err


class TestSliccParams:
    def test_defaults_match_section_52(self):
        p = SliccParams()
        assert p.fill_up_t == 256
        assert p.matched_t == 4
        assert p.dilution_t == 10
        assert p.bloom_bits == 2048
        assert p.msv_window == 100

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            SliccParams(fill_up_t=0)
        with pytest.raises(ConfigurationError):
            SliccParams(matched_t=0)
        with pytest.raises(ConfigurationError):
            SliccParams(dilution_t=200)
        with pytest.raises(ConfigurationError):
            SliccParams(bloom_bits=1000)

    @pytest.mark.parametrize("factor", [0, -1])
    def test_thread_pool_factor_below_one_rejected(self, factor):
        # An empty pool admits no thread: unchecked, every SLICC run would
        # stall deep in the loop ("pool stuck"), which the runner retries
        # as a transient failure.
        with pytest.raises(ConfigurationError, match="thread_pool_factor"):
            SliccParams(thread_pool_factor=factor)

    @pytest.mark.parametrize("window", [0, -5])
    def test_msv_window_below_one_rejected(self, window):
        with pytest.raises(ConfigurationError, match="msv_window"):
            SliccParams(msv_window=window, dilution_t=0)

    def test_smallest_valid_pool_and_window_accepted(self):
        p = SliccParams(thread_pool_factor=1, msv_window=1, dilution_t=1)
        assert p.thread_pool_factor == 1 and p.msv_window == 1


class TestCacheParamsScaled:
    def test_scaled_changes_size(self):
        p = CacheParams().scaled(64 * 1024)
        assert p.size_bytes == 64 * 1024
        assert p.hit_latency == 3

    def test_scaled_with_latency(self):
        p = CacheParams().scaled(64 * 1024, hit_latency=5)
        assert p.hit_latency == 5


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_surface(self):
        trace = repro.standard_trace("mapreduce", ScalePreset.SMOKE)
        result = repro.simulate(trace, variant="base")
        assert result.cycles > 0

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
