"""Tests for declarative experiment specs, hashing and grid expansion."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentSpec,
    grid,
    load_spec_file,
    product,
    with_overrides,
)
from repro.params import ScalePreset, SliccParams
from repro.sim import SimConfig
from repro.workloads import DEFAULT_THREADS

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

#: The spec files the repository ships.
SPEC_FILES = sorted(path.name for path in EXPERIMENTS.glob("*.json"))


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

    @pytest.mark.parametrize(
        "config,key",
        [
            (
                None,
                "073709fea69ddb3c1a43b7f0fa432575abf5eaba5e67ed48837df621c6111201",
            ),
            (
                SimConfig(variant="slicc-sw"),
                "3cc7ab66769a3b9ce66eb19dd387f666ac76da1eec6e951078d5b07bb4c01d12",
            ),
        ],
    )
    def test_key_is_pinned(self, config, key):
        """Literal keys: a refactor of SimConfig or the key function must
        never re-key (and so orphan) the rows of an existing store."""
        kwargs = {} if config is None else {"config": config}
        spec = ExperimentSpec("tpcc-1", scale="smoke", seed=7, **kwargs)
        assert spec.key() == key

    def test_key_varies_with_trace_fields(self):
        a = ExperimentSpec("tpcc-1", seed=3)
        assert a.key() != ExperimentSpec("tpcc-1", seed=4).key()
        assert a.key() != ExperimentSpec("tpce", seed=3).key()
        assert a.key() != ExperimentSpec("tpcc-1", seed=3, n_threads=8).key()

    @pytest.mark.parametrize("scale", [s.value for s in ScalePreset])
    def test_default_thread_count_keys_as_none(self, scale):
        """The scale's default thread count builds the trace that None
        builds, so both share one key; other counts keep their own."""
        implicit = ExperimentSpec("tpcc-1", scale=scale, seed=7)
        default = DEFAULT_THREADS[ScalePreset(scale)]
        explicit = replace(implicit, n_threads=default)
        assert explicit.trace_key() == implicit.trace_key()
        assert explicit.key() == implicit.key()
        other = replace(implicit, n_threads=default + 1)
        assert other.trace_key() != implicit.trace_key()

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

    def test_trace_id_not_overridable(self):
        with pytest.raises(ConfigurationError):
            with_overrides(ExperimentSpec("tpcc-1"), {"trace_id": "abc"})

    def test_baseline_spec(self):
        spec = ExperimentSpec(
            "tpcc-1", config=SimConfig(variant="slicc-sw", quantum=25)
        )
        base = spec.baseline()
        assert base.variant == "base"
        assert base.config.quantum == 25
        assert base.trace_key() == spec.trace_key()


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
    @pytest.mark.parametrize("name", SPEC_FILES)
    def test_shipped_spec_file_expands(self, name):
        """Every spec file under experiments/ expands into valid specs
        with distinct keys, and a baseline replays its grid's trace."""
        specs, baseline = load_spec_file(EXPERIMENTS / name)
        family = specs if baseline is None else [baseline, *specs]
        assert specs
        keys = [spec.key() for spec in family]
        assert len(set(keys)) == len(keys)
        if baseline is not None:
            assert {spec.trace_key() for spec in specs} == {baseline.trace_key()}

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

    def test_spec_from_dict_resolves_field_types_once_per_class(
        self, monkeypatch
    ):
        """A queue drain rebuilds every claimed spec from its payload;
        each parameter dataclass's type hints are resolved once per
        process, not once per payload (five per payload before)."""
        import collections
        import typing

        from repro.exp import spec as spec_mod

        resolved = collections.Counter()
        real = typing.get_type_hints

        def counting(cls, *args, **kwargs):
            resolved[cls.__name__] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counting)
        spec_mod._field_hints.cache_clear()
        payload = self._spec().to_dict()
        for _ in range(10):
            assert spec_mod.spec_from_dict(payload).key() == self._spec().key()
        assert resolved == {
            "SimConfig": 1,
            "SystemParams": 1,
            "SliccParams": 1,
            "CacheParams": 1,
        }

    def test_eq_hash_and_dict_ignore_the_memo(self):
        memoised, fresh = self._spec(), self._spec()
        memoised.key()
        assert memoised == fresh and hash(memoised) == hash(fresh)
        assert memoised.to_dict() == fresh.to_dict()
        assert "_key" not in memoised.to_dict()
        assert "_key" not in repr(memoised)

    def test_to_dict_matches_asdict(self):
        from dataclasses import asdict

        pif = ExperimentSpec(
            "tpce", scale="smoke", seed=7, config=SimConfig(variant="pif")
        )
        for spec in (self._spec(n_threads=8), pif):
            spec.key()
            assert spec.to_dict() == asdict(spec)


def _formula_key(spec):
    """The key as a plain ``_stable_hash`` of the trace key and the
    canonical config without its kernel: the formula every store row
    was written under."""
    from dataclasses import asdict

    from repro.exp.spec import _stable_hash

    config = asdict(spec.canonical_config())
    del config["kernel"]
    return _stable_hash({"trace": spec.trace_key(), "config": config})


def _registry_specs(scale):
    from repro.exp import select_figures

    for figure in select_figures():
        for row in figure.build(scale):
            yield row.spec
            if row.baseline is not None:
                yield row.baseline


class TestKeyFormula:
    """key() renders each config's JSON once and splices it into the
    hashed text; the keys must stay byte-identical to the formula."""

    @pytest.mark.parametrize("scale", ["smoke", "ci"])
    def test_registry_keys_match_the_formula(self, scale):
        specs = list(_registry_specs(scale))
        assert specs
        for spec in specs:
            assert spec.key() == _formula_key(spec)

    def test_policy_gated_grid_matches_the_formula(self):
        from repro.sched import POLICY_GATED_FIELDS, policy_names

        axes = {
            "variant": list(policy_names()),
            "slicc": [SliccParams(), SliccParams(fill_up_t=128, dilution_t=4)],
            "work_stealing": [True, False],
            "steal_min_depth": [1, 3, 6],
            "steal_resets_mc": [False, True],
            "data_prefetch_n": [0, 8],
        }
        assert set(axes) - {"variant"} == set(POLICY_GATED_FIELDS)
        specs = grid(ExperimentSpec("tpcc-1", scale="smoke", seed=7), axes)
        assert len(specs) == len(policy_names()) * 48
        for spec in specs:
            assert spec.key() == _formula_key(spec)
        # Gating still collapses what a policy ignores: base reads none
        # of the 48 gated combinations.
        assert len({s.key() for s in specs if s.variant == "base"}) == 1

    def test_reference_kernel_shares_the_auto_key(self):
        for spec in (
            ExperimentSpec("tpce", scale="smoke", seed=3),
            ExperimentSpec(
                "tpcc-1",
                config=SimConfig(variant="slicc-sw"),
                scale="smoke",
                seed=7,
            ),
        ):
            auto = with_overrides(spec, {"kernel": "auto"})
            reference = with_overrides(spec, {"kernel": "reference"})
            assert reference.key() == _formula_key(reference) == auto.key()

    @pytest.mark.parametrize("first", ["int", "float"])
    def test_equal_configs_of_other_types_keep_their_own_keys(
        self, first, monkeypatch
    ):
        """10 == 10.0 and 1 == True, but their JSON differs, so the
        rendered config is memoised per repr, not per ==: whichever
        spelling is keyed first, each keeps the formula's key."""
        from repro.exp import spec as spec_mod

        monkeypatch.setattr(spec_mod, "_CONFIG_JSON", {})
        spellings = {
            "int": SimConfig(variant="slicc", slicc=SliccParams(dilution_t=10)),
            "float": SimConfig(
                variant="slicc", slicc=SliccParams(dilution_t=10.0)
            ),
        }
        assert spellings["int"] == spellings["float"]
        order = [first] + [name for name in spellings if name != first]
        keys = {}
        for name in order:
            spec = ExperimentSpec("tpcc-1", scale="smoke", config=spellings[name])
            keys[name] = spec.key()
            assert keys[name] == _formula_key(spec)
        assert keys["int"] != keys["float"]
        stealing = ExperimentSpec(
            "tpcc-1",
            scale="smoke",
            config=SimConfig(variant="tmi", work_stealing=1),
        )
        assert stealing.key() == _formula_key(stealing)
        as_bool = with_overrides(stealing, {"work_stealing": True})
        assert stealing.key() != as_bool.key() == _formula_key(as_bool)

    def test_smoke_registry_renders_each_config_once(self, monkeypatch):
        """The smoke registry keys 250 spec instances that hold 27
        distinct configs; each config is rendered once."""
        import collections

        from repro.exp import spec as spec_mod

        rendered = collections.Counter()
        render = spec_mod._render_config

        def counting(config):
            rendered[repr(config)] += 1
            return render(config)

        monkeypatch.setattr(spec_mod, "_render_config", counting)
        monkeypatch.setattr(spec_mod, "_CONFIG_JSON", {})
        specs = list(_registry_specs("smoke"))
        for spec in specs:
            spec.key()
        assert len(specs) == 250
        assert len(rendered) == 27
        assert set(rendered.values()) == {1}

    def test_render_memo_is_bounded(self, monkeypatch):
        from repro.exp import spec as spec_mod

        monkeypatch.setattr(spec_mod, "_CONFIG_JSON", {})
        monkeypatch.setattr(spec_mod, "_CONFIG_JSON_SIZE", 3)
        specs = [
            ExperimentSpec("tpcc-1", config=SimConfig(quantum=q))
            for q in range(1, 6)
        ]
        for spec in specs:
            assert spec.key() == _formula_key(spec)
        assert len(spec_mod._CONFIG_JSON) == 3
        assert repr(specs[-1].config) in spec_mod._CONFIG_JSON
