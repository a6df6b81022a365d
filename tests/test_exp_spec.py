"""Tests for declarative experiment specs, hashing and grid expansion."""

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentSpec,
    grid,
    load_spec_file,
    product,
    spec_for,
    trace_fingerprint,
    with_overrides,
)
from repro.params import SliccParams
from repro.sim import SimConfig


class TestSpecIdentity:
    def test_frozen_and_hashable(self):
        spec = ExperimentSpec("tpcc-1")
        assert spec in {spec}
        with pytest.raises(AttributeError):
            spec.workload = "tpce"

    def test_key_is_stable_and_label_free(self):
        a = ExperimentSpec("tpcc-1", seed=3, label="first")
        b = ExperimentSpec("tpcc-1", seed=3, label="second")
        assert a.key() == b.key()

    def test_key_varies_with_trace_fields(self):
        a = ExperimentSpec("tpcc-1", seed=3)
        assert a.key() != ExperimentSpec("tpcc-1", seed=4).key()
        assert a.key() != ExperimentSpec("tpce", seed=3).key()
        assert a.key() != ExperimentSpec("tpcc-1", seed=3, n_threads=8).key()

    def test_key_varies_with_config(self):
        a = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc"))
        b = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc-sw"))
        assert a.key() != b.key()

    def test_base_variant_canonicalises_slicc_params(self):
        """slicc thresholds cannot affect a base run, so they must not
        fragment its cache key."""
        plain = ExperimentSpec("tpcc-1", config=SimConfig(variant="base"))
        tweaked = ExperimentSpec(
            "tpcc-1",
            config=SimConfig(
                variant="base", slicc=SliccParams(dilution_t=25)
            ),
        )
        assert plain.key() == tweaked.key()

    def test_slicc_variant_keeps_slicc_params_in_key(self):
        a = ExperimentSpec("tpcc-1", config=SimConfig(variant="slicc"))
        b = ExperimentSpec(
            "tpcc-1",
            config=SimConfig(variant="slicc", slicc=SliccParams(dilution_t=25)),
        )
        assert a.key() != b.key()

    def test_steps_keeps_slicc_but_not_steal_knobs(self):
        a = ExperimentSpec("tpcc-1", config=SimConfig(variant="steps"))
        b = ExperimentSpec(
            "tpcc-1",
            config=SimConfig(variant="steps", slicc=SliccParams(dilution_t=25)),
        )
        c = ExperimentSpec(
            "tpcc-1", config=SimConfig(variant="steps", steal_min_depth=9)
        )
        assert a.key() != b.key()
        assert a.key() == c.key()

    @pytest.mark.parametrize("variant", ["tmi", "random-migrate"])
    def test_migrating_extensions_keep_migration_knobs_in_key(self, variant):
        """tmi/random-migrate migrate without SLICC's machinery; their
        relevant_fields declaration must keep the steal/threshold knobs
        in the cache key so sweeps do not collide on store keys."""
        plain = ExperimentSpec("tpcc-1", config=SimConfig(variant=variant))
        for tweaked_config in (
            SimConfig(variant=variant, slicc=SliccParams(fill_up_t=64)),
            SimConfig(variant=variant, steal_min_depth=9),
            SimConfig(variant=variant, work_stealing=False),
            SimConfig(variant=variant, data_prefetch_n=4),
        ):
            tweaked = ExperimentSpec("tpcc-1", config=tweaked_config)
            assert plain.key() != tweaked.key(), tweaked_config

    def test_affinity_canonicalises_all_migration_knobs(self):
        """affinity never migrates, so neither the slicc thresholds nor
        the steal knobs may fragment its cache key."""
        plain = ExperimentSpec("tpcc-1", config=SimConfig(variant="affinity"))
        tweaked = ExperimentSpec(
            "tpcc-1",
            config=SimConfig(
                variant="affinity",
                slicc=SliccParams(dilution_t=25),
                steal_min_depth=9,
                data_prefetch_n=4,
            ),
        )
        assert plain.key() == tweaked.key()

    def test_bad_scale_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("tpcc-1", scale="galactic")

    def test_bad_workload_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("tpch")

    def test_synthetic_workload_allowed_with_explicit_trace(self, smoke_tpcc):
        """spec_for traces skip name validation (names may be synthetic)."""
        spec = spec_for(smoke_tpcc, variant="base")
        assert ExperimentSpec(
            "anything-goes", trace_id=spec.trace_id
        ).trace_key() == spec.trace_id

    def test_trace_id_not_overridable(self):
        with pytest.raises(ConfigurationError):
            with_overrides(ExperimentSpec("tpcc-1"), {"trace_id": "abc"})

    def test_trace_fields_not_overridable_on_explicit_spec(self, smoke_tpcc):
        """Overriding seed/workload on a pinned-trace spec would silently
        keep replaying the pinned trace under a new name."""
        spec = spec_for(smoke_tpcc, variant="base")
        with pytest.raises(ConfigurationError):
            with_overrides(spec, {"seed": 2})
        with pytest.raises(ConfigurationError):
            grid(spec, {"seed": [1, 2, 3]})
        # Config axes remain fine on explicit-trace specs.
        assert len(grid(spec, {"slicc.matched_t": [2, 4]})) == 2

    def test_baseline_spec(self):
        spec = ExperimentSpec(
            "tpcc-1", config=SimConfig(variant="slicc-sw", quantum=25)
        )
        base = spec.baseline()
        assert base.variant == "base"
        assert base.config.quantum == 25
        assert base.trace_key() == spec.trace_key()


class TestExplicitTraces:
    def test_spec_for_uses_content_fingerprint(self, smoke_tpcc):
        a = spec_for(smoke_tpcc, SimConfig(variant="base"))
        b = spec_for(smoke_tpcc, variant="base")
        assert a.trace_id == trace_fingerprint(smoke_tpcc)
        assert a.key() == b.key()

    def test_different_traces_differ(self, smoke_tpcc, smoke_tpce):
        a = spec_for(smoke_tpcc, variant="base")
        b = spec_for(smoke_tpce, variant="base")
        assert a.key() != b.key()

    def test_config_and_kwargs_are_exclusive(self, smoke_tpcc):
        with pytest.raises(ConfigurationError):
            spec_for(smoke_tpcc, SimConfig(), variant="base")


class TestOverridesAndGrid:
    def test_product_preserves_axis_order(self):
        points = product({"a": [1, 2], "b": [3, 4]})
        assert points == [
            {"a": 1, "b": 3},
            {"a": 1, "b": 4},
            {"a": 2, "b": 3},
            {"a": 2, "b": 4},
        ]

    def test_with_overrides_paths(self):
        spec = ExperimentSpec("tpcc-1")
        out = with_overrides(
            spec,
            {
                "variant": "slicc-sw",
                "quantum": 25,
                "slicc.dilution_t": 8,
                "system.l2_hit_latency": 20,
                "seed": 9,
            },
        )
        assert out.variant == "slicc-sw"
        assert out.config.quantum == 25
        assert out.config.slicc.dilution_t == 8
        assert out.config.system.l2_hit_latency == 20
        assert out.seed == 9
        # The original is untouched.
        assert spec.variant == "base" and spec.seed == 1

    @pytest.mark.parametrize(
        "path", ["nope", "slicc.nope", "system.nope", "quantum.nope"]
    )
    def test_unknown_override_rejected(self, path):
        with pytest.raises(ConfigurationError):
            with_overrides(ExperimentSpec("tpcc-1"), {path: 1})

    def test_whole_object_override_accepts_dict(self):
        """JSON spec files can only spell SliccParams as a dict."""
        out = with_overrides(
            ExperimentSpec("tpcc-1"), {"slicc": {"dilution_t": 5}}
        )
        assert out.config.slicc == SliccParams(dilution_t=5)

    def test_nested_dataclass_dicts_coerced(self):
        """system.l1i written as a dict (JSON spelling) must become a
        CacheParams, not reach the engine as a raw dict."""
        from repro.params import CacheParams

        out = with_overrides(
            ExperimentSpec("tpcc-1"),
            {"system": {"l1i": {"size_bytes": 65536}}},
        )
        assert out.config.system.l1i == CacheParams(size_bytes=65536)
        dotted = with_overrides(
            ExperimentSpec("tpcc-1"), {"system.l1d": {"assoc": 4}}
        )
        assert dotted.config.system.l1d == CacheParams(assoc=4)

    def test_nested_dataclass_bad_field_rejected(self):
        with pytest.raises(ConfigurationError):
            with_overrides(
                ExperimentSpec("tpcc-1"),
                {"system": {"l1i": {"size": 65536}}},
            )

    def test_whole_object_override_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            with_overrides(ExperimentSpec("tpcc-1"), {"slicc": {"warp": 1}})
        with pytest.raises(ConfigurationError):
            with_overrides(ExperimentSpec("tpcc-1"), {"system": 42})

    def test_whole_object_plus_dotted_conflict_rejected(self):
        with pytest.raises(ConfigurationError):
            with_overrides(
                ExperimentSpec("tpcc-1"),
                {"slicc": {"dilution_t": 5}, "slicc.matched_t": 2},
            )

    def test_grid_expands_and_labels(self):
        specs = grid(
            ExperimentSpec("tpcc-1"),
            {"variant": ["slicc"], "slicc.matched_t": [2, 4]},
        )
        assert len(specs) == 2
        assert specs[0].label == "variant=slicc,matched_t=2"
        assert specs[1].config.slicc.matched_t == 4
        assert all(s.variant == "slicc" for s in specs)

    def test_grid_custom_label(self):
        specs = grid(
            ExperimentSpec("tpcc-1"),
            {"slicc.matched_t": [2]},
            label=lambda p: f"m{p['slicc.matched_t']}",
        )
        assert specs[0].label == "m2"


class TestSpecFile:
    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "seed": 7,'
            ' "variant": "slicc-sw",'
            ' "axes": {"slicc.dilution_t": [5, 10]}, "baseline": true}'
        )
        specs, baseline = load_spec_file(path)
        assert [s.config.slicc.dilution_t for s in specs] == [5, 10]
        assert all(s.variant == "slicc-sw" for s in specs)
        assert baseline is not None and baseline.variant == "base"
        assert baseline.trace_key() == specs[0].trace_key()

    def test_load_spec_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"workload": "tpcc-1", "warp_factor": 9}')
        with pytest.raises(ConfigurationError):
            load_spec_file(path)

    def test_load_spec_file_requires_workload(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"scale": "smoke"}')
        with pytest.raises(ConfigurationError):
            load_spec_file(path)

    def test_load_spec_file_nested_overrides_dict(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "variant": "slicc",'
            ' "overrides": {"slicc": {"dilution_t": 5}}}'
        )
        specs, _ = load_spec_file(path)
        assert specs[0].config.slicc.dilution_t == 5

    def test_baseline_with_trace_axis_rejected(self, tmp_path):
        """One shared baseline is meaningless across different traces."""
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "baseline": true,'
            ' "axes": {"workload": ["tpcc-1", "tpce"]}}'
        )
        with pytest.raises(ConfigurationError):
            load_spec_file(path)

    @pytest.mark.parametrize(
        "axis", ['"quantum": [25, 50]', '"system.l2_hit_latency": [8, 16]']
    )
    def test_baseline_with_shared_config_axis_rejected(self, tmp_path, axis):
        """Axes over fields the baseline inherits would compare grid
        points against a mismatched-machine baseline."""
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "baseline": true,'
            ' "axes": {%s}}' % axis
        )
        with pytest.raises(ConfigurationError):
            load_spec_file(path)

    def test_conflicting_variant_spellings_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "variant": "slicc",'
            ' "overrides": {"variant": "slicc-sw"}}'
        )
        with pytest.raises(ConfigurationError):
            load_spec_file(path)

    def test_matching_variant_spellings_accepted(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "variant": "slicc",'
            ' "overrides": {"variant": "slicc"}}'
        )
        specs, _ = load_spec_file(path)
        assert specs[0].variant == "slicc"

    def test_top_level_label_prefixes_grid_labels(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke", "label": "tuneA",'
            ' "axes": {"slicc.dilution_t": [5, 10]}}'
        )
        specs, _ = load_spec_file(path)
        assert [s.label for s in specs] == [
            "tuneA:dilution_t=5",
            "tuneA:dilution_t=10",
        ]

    def test_multi_workload_axis_fine_without_baseline(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            '{"workload": "tpcc-1", "scale": "smoke",'
            ' "axes": {"workload": ["tpcc-1", "tpce"]}}'
        )
        specs, baseline = load_spec_file(path)
        assert [s.workload for s in specs] == ["tpcc-1", "tpce"]
        assert baseline is None


class TestFingerprintMemo:
    def test_fingerprint_cached_on_trace(self, smoke_tpcc):
        first = trace_fingerprint(smoke_tpcc)
        assert getattr(smoke_tpcc, "_exp_fingerprint") == first
        assert trace_fingerprint(smoke_tpcc) == first


class TestKeyMemo:
    """key()/trace_key() are memoised on the frozen instance."""

    def _spec(self, **kw):
        return ExperimentSpec(
            "tpcc-1", scale="smoke", seed=3, config=SimConfig(variant="slicc"), **kw
        )

    def test_memo_is_stored_and_reused(self):
        spec = self._spec()
        key = spec.key()
        assert spec._key == key and spec._trace_key == spec.trace_key()
        assert spec.key() is key

    def test_replace_yields_fresh_key(self):
        from dataclasses import replace

        spec = self._spec()
        key = spec.key()
        moved = replace(spec, seed=4)
        assert moved._key is None
        assert moved.key() != key
        assert moved.trace_key() != spec.trace_key()
        relabelled = replace(spec, label="x")
        assert relabelled._key is None and relabelled.key() == key

    def test_round_trips_keep_the_key(self):
        import pickle

        from repro.exp.spec import spec_from_dict

        spec = self._spec()
        key = spec.key()
        assert pickle.loads(pickle.dumps(spec)).key() == key
        fresh = spec_from_dict(spec.to_dict())
        assert fresh._key is None and fresh.key() == key

    def test_eq_hash_and_dict_ignore_the_memo(self):
        memoised, fresh = self._spec(), self._spec()
        memoised.key()
        assert memoised == fresh and hash(memoised) == hash(fresh)
        assert memoised.to_dict() == fresh.to_dict()
        assert "_key" not in memoised.to_dict()
        assert "_key" not in repr(memoised)

    def test_to_dict_matches_asdict(self, smoke_tpcc):
        from dataclasses import asdict

        for spec in (self._spec(n_threads=8), spec_for(smoke_tpcc, variant="pif")):
            spec.key()
            assert spec.to_dict() == asdict(spec)
