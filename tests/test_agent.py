"""Tests for the SLICC agent's Q1/Q2/Q3 decision logic."""

from repro.core import MigrationReason, SliccAgent
from repro.params import SliccParams


def make_agent(fill_up_t=4, matched_t=2, dilution_t=2, core_id=0, n_cores=4):
    params = SliccParams(
        fill_up_t=fill_up_t, matched_t=matched_t, dilution_t=dilution_t,
        msv_window=100, bloom_bits=2048,
    )
    return SliccAgent(core_id, params, n_cores)


def fill_cache(agent):
    for _ in range(agent.params.fill_up_t):
        agent.observe_access(hit=False)


class TestQ1CacheFull:
    def test_not_full_initially(self):
        assert not make_agent().cache_full

    def test_full_after_fill_up_misses(self):
        agent = make_agent(fill_up_t=3)
        for _ in range(3):
            agent.observe_access(hit=False)
        assert agent.cache_full

    def test_hits_do_not_fill(self):
        agent = make_agent(fill_up_t=2)
        for _ in range(10):
            agent.observe_access(hit=True)
        assert not agent.cache_full

    def test_no_gather_before_full(self):
        agent = make_agent(fill_up_t=5)
        assert not agent.observe_access(hit=False)

    def test_gather_on_miss_when_full(self):
        agent = make_agent(fill_up_t=1)
        agent.observe_access(hit=False)
        assert agent.observe_access(hit=False)

    def test_no_gather_on_hit_when_full(self):
        agent = make_agent(fill_up_t=1)
        agent.observe_access(hit=False)
        assert not agent.observe_access(hit=True)


class TestQ2Dilution:
    def test_migration_needs_dilution_and_mtq(self):
        agent = make_agent(fill_up_t=1, matched_t=2, dilution_t=2)
        agent.observe_access(hit=False)  # fills
        agent.observe_access(hit=False)
        agent.note_miss_presence(0b0010)
        assert not agent.migration_enabled  # MTQ not full yet
        agent.observe_access(hit=False)
        agent.note_miss_presence(0b0010)
        assert agent.migration_enabled

    def test_hits_dilute_misses(self):
        agent = make_agent(fill_up_t=1, matched_t=1, dilution_t=3)
        agent.observe_access(hit=False)
        for _ in range(50):
            agent.observe_access(hit=True)
        agent.observe_access(hit=False)
        agent.note_miss_presence(0b0010)
        assert not agent.migration_enabled


class TestQ3Decide:
    def _armed_agent(self, mask):
        agent = make_agent(fill_up_t=1, matched_t=1, dilution_t=0)
        agent.observe_access(hit=False)
        agent.observe_access(hit=False)
        agent.note_miss_presence(mask)
        return agent

    def test_segment_match_preferred(self):
        agent = self._armed_agent(0b0110)
        decision = agent.decide(idle_cores=[3])
        assert decision.reason is MigrationReason.SEGMENT_MATCH
        assert decision.target in (1, 2)

    def test_idle_core_second(self):
        agent = self._armed_agent(0b0000)
        decision = agent.decide(idle_cores=[3])
        assert decision.reason is MigrationReason.IDLE_CORE
        assert decision.target == 3

    def test_stay_last(self):
        agent = self._armed_agent(0b0000)
        decision = agent.decide(idle_cores=[])
        assert decision.reason is MigrationReason.STAY
        assert decision.target is None

    def test_stay_resets_mc(self):
        agent = self._armed_agent(0b0000)
        agent.decide(idle_cores=[])
        assert not agent.cache_full

    def test_self_match_excluded(self):
        agent = self._armed_agent(0b0001)  # only the local core matches
        decision = agent.decide(idle_cores=[])
        assert decision.reason is MigrationReason.STAY

    def test_allowed_cores_filter(self):
        agent = self._armed_agent(0b0110)
        decision = agent.decide(idle_cores=[], allowed_cores=frozenset({2}))
        assert decision.target == 2

    def test_nearest_tiebreak(self):
        agent = self._armed_agent(0b0110)
        decision = agent.decide(idle_cores=[], nearest=lambda c: max(c))
        assert decision.target == 2

    def test_broadcast_counted_per_decision(self):
        agent = self._armed_agent(0b0110)
        before = agent.stats.broadcasts
        agent.decide(idle_cores=[])
        assert agent.stats.broadcasts == before + 1


class TestResets:
    def test_thread_switch_clears_msv_mtq_not_mc(self):
        agent = make_agent(fill_up_t=1, matched_t=1, dilution_t=1)
        agent.observe_access(hit=False)
        agent.observe_access(hit=False)
        agent.note_miss_presence(0b0010)
        agent.on_thread_switch()
        assert agent.cache_full
        assert not agent.migration_enabled
