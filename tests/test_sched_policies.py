"""Tests for the scheduling-policy subsystem (``repro.sched``).

Covers the registry contract (unknown names fail loudly, every
registered policy simulates end-to-end), the extension policies'
semantics (tmi migrates without broadcasting, affinity never migrates,
random-migrate is deterministic), and the idle-core adoption path: the
IDLE_CORE rung of the SLICC migration decision resets the *target*
agent's MissCounter while the SEGMENT_MATCH rung leaves it frozen.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exp.store import result_to_json
from repro.params import ScalePreset
from repro.sched import (
    SchedulingPolicy,
    get_policy,
    has_policy,
    policy_descriptions,
    policy_names,
    register_policy,
)
from repro.sim.engine import ReplayEngine, SimConfig, simulate
from repro.workloads import standard_trace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from dump_golden import GOLDEN_VARIANTS  # noqa: E402


@pytest.fixture(scope="module")
def smoke_trace():
    return standard_trace("tpcc-1", ScalePreset.SMOKE, seed=3)


@pytest.fixture(scope="module")
def phased_trace():
    return standard_trace("phased", ScalePreset.SMOKE, seed=3)


class TestRegistry:
    def test_legacy_variants_come_first(self):
        """The paper's seven variants (the golden grid) are a prefix of
        the registry, so positional assumptions in older callers keep
        holding."""
        assert policy_names()[: len(GOLDEN_VARIANTS)] == GOLDEN_VARIANTS

    def test_extension_policies_registered(self):
        assert {"tmi", "affinity", "random-migrate"} <= set(policy_names())

    def test_unknown_policy_is_config_error(self):
        with pytest.raises(ConfigurationError):
            get_policy("fifo-9000")
        assert not has_policy("fifo-9000")

    def test_unknown_variant_rejected_by_config(self):
        with pytest.raises(ConfigurationError):
            SimConfig(variant="fifo-9000")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_policy(get_policy("slicc"))

    def test_unnamed_policy_rejected(self):
        class Nameless(SchedulingPolicy):
            pass

        with pytest.raises(ConfigurationError):
            register_policy(Nameless)

    def test_every_policy_has_a_description(self):
        for name, description in policy_descriptions().items():
            assert description, f"policy {name!r} has no description"

    def test_legacy_flags_match_deprecated_tuples(self):
        """The capability flags reproduce the paper's variant groups:
        the three SLICC variants carry the SLICC machinery, STEPS
        time-multiplexes."""
        for name in GOLDEN_VARIANTS:
            cls = get_policy(name)
            assert cls.slicc_machinery == (
                name in ("slicc", "slicc-sw", "slicc-pp")
            )
            assert cls.time_multiplexes == (name == "steps")


class TestEveryPolicySimulates:
    @pytest.mark.parametrize("policy", policy_names())
    def test_smoke_run_completes(self, smoke_trace, policy):
        result = simulate(smoke_trace, variant=policy)
        assert result.threads_completed == len(smoke_trace.threads)
        assert result.cycles > 0
        assert result.variant == policy

    @pytest.mark.parametrize("policy", ("tmi", "affinity", "random-migrate"))
    def test_extensions_on_phased(self, phased_trace, policy):
        result = simulate(phased_trace, variant=policy)
        assert result.threads_completed == len(phased_trace.threads)


class TestExtensionSemantics:
    def test_tmi_migrates_without_broadcasting(self, smoke_trace):
        result = simulate(smoke_trace, variant="tmi")
        assert result.migrations > 0
        # No Q.3 machinery: every migration is an idle-core hop and no
        # remote segment search is ever broadcast.
        assert result.broadcasts == 0
        assert result.idle_core_migrations == result.migrations

    def test_affinity_never_migrates(self, smoke_trace):
        result = simulate(smoke_trace, variant="affinity")
        assert result.migrations == 0
        assert result.context_switches == 0
        # The static partition is reported like the team variants'.
        assert result.teams_completed > 0

    def test_affinity_restricts_placement_to_partition(self, smoke_trace):
        engine = ReplayEngine(smoke_trace, SimConfig(variant="affinity"))
        assert engine._partition is not None
        for thread in smoke_trace.threads:
            allowed = engine._allowed_for(thread.thread_id)
            assert allowed <= engine._worker_set
        engine.run()

    def test_random_migrate_is_deterministic(self, smoke_trace):
        a = simulate(smoke_trace, variant="random-migrate")
        b = simulate(smoke_trace, variant="random-migrate")
        assert result_to_json(a) == result_to_json(b)
        assert a.migrations > 0

    def test_extension_policies_differ_from_base_and_each_other(
        self, smoke_trace
    ):
        base = simulate(smoke_trace, variant="base")
        tmi = simulate(smoke_trace, variant="tmi")
        rnd = simulate(smoke_trace, variant="random-migrate")
        assert tmi.cycles != base.cycles
        assert rnd.cycles != base.cycles
        assert tmi.cycles != rnd.cycles

    def test_quantum_hooks_stay_out_of_the_record_loop(self, smoke_trace):
        """Extension policies must not reintroduce per-record dispatch:
        the engine consults them at most once per quantum."""
        config = SimConfig(variant="tmi")
        engine = ReplayEngine(smoke_trace, config)
        calls = 0
        quantum_end = engine.policy.quantum_end

        def counting_quantum_end(core):
            nonlocal calls
            calls += 1
            return quantum_end(core)

        engine.policy.quantum_end = counting_quantum_end
        engine.run()
        total_records = smoke_trace.total_records
        quanta_lower_bound = total_records // config.quantum
        # One call per quantum at most (plus scheduling-event slack),
        # nowhere near one per record.
        assert 0 < calls <= quanta_lower_bound + 10 * len(smoke_trace.threads)
        assert calls < total_records / 2


class TestRegistryDrivenSurfaces:
    """New policies surface in the CLI and spec files without edits."""

    def test_cli_variant_choices_track_registry(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "phased", "--variants", "affinity", "tmi",
             "random-migrate"]
        )
        assert args.variants == ["affinity", "tmi", "random-migrate"]

    def test_cli_rejects_unregistered_variant(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "phased", "--variants", "fifo-9000"]
            )

    def test_spec_file_accepts_extension_policy(self, tmp_path):
        import json

        from repro.exp import load_spec_file

        path = tmp_path / "tmi.json"
        path.write_text(json.dumps(
            {"workload": "tpcc-1", "scale": "smoke", "variant": "tmi"}
        ))
        specs, baseline = load_spec_file(path)
        assert [spec.variant for spec in specs] == ["tmi"]

    def test_spec_file_rejects_unknown_policy(self, tmp_path):
        import json

        from repro.exp import load_spec_file

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"workload": "tpcc-1", "variant": "fifo-9000"}
        ))
        with pytest.raises(ConfigurationError):
            load_spec_file(path)


class TestIdleCoreAdoption:
    """The IDLE_CORE migration rung resets the target agent's MC (the
    idle cache adopts the incoming segment); the SEGMENT_MATCH rung
    leaves the target's MC frozen (the segment is already there)."""

    def _armed_engine(self, smoke_trace, presence_mask: int):
        engine = ReplayEngine(smoke_trace, SimConfig(variant="slicc"))
        agent = engine.agents[0]
        engine.running[0] = 0
        params = engine.config.slicc
        for _ in range(params.fill_up_t):
            agent.mc.record_miss()
        for _ in range(params.dilution_t):
            agent.msv.record(True)
        for _ in range(params.matched_t):
            agent.mtq.record(presence_mask)
        assert agent.migration_enabled
        return engine, agent

    def test_idle_core_migration_resets_target_mc(self, smoke_trace):
        engine, agent = self._armed_engine(smoke_trace, presence_mask=0)
        # Pre-fill every possible target so the reset is observable.
        for other in engine.worker_cores[1:]:
            engine.agents[other].mc.record_miss()
        assert engine._evaluate_migration(0, agent) is True
        target = engine._pending_target
        assert target is not None and target != 0
        assert engine.agents[target].mc.count == 0, (
            "idle-core adoption must unfreeze the target's fill path"
        )

    def test_segment_match_keeps_target_mc_frozen(self, smoke_trace):
        # Presence mask names core 2: the MTQ AND yields a segment match.
        engine, agent = self._armed_engine(smoke_trace, presence_mask=1 << 2)
        for _ in range(5):
            engine.agents[2].mc.record_miss()
        assert engine._evaluate_migration(0, agent) is True
        assert engine._pending_target == 2
        assert engine.agents[2].mc.count == 5, (
            "a segment-match target's MC must stay frozen — its cache "
            "already holds the segment"
        )

    def test_stay_decision_stages_no_target(self, smoke_trace):
        engine, agent = self._armed_engine(smoke_trace, presence_mask=0)
        # Make every other core non-idle so the idle rung has no
        # candidates: queue one thread everywhere.
        for i, core in enumerate(engine.worker_cores[1:], start=1):
            engine.queues.enqueue(core, i)
        engine._pending_target = None
        assert engine._evaluate_migration(0, agent) is False
        assert engine._pending_target is None
        # STAY resets the local trackers (the cache refills in place).
        assert agent.mc.count == 0
