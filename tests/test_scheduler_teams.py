"""Tests for the per-core thread queues."""

import pytest

from repro.core import ThreadQueues
from repro.errors import SimulationError


class TestThreadQueues:
    def test_fifo_order(self):
        q = ThreadQueues(2)
        q.enqueue(0, 10)
        q.enqueue(0, 11)
        assert q.dequeue(0) == 10
        assert q.dequeue(0) == 11

    def test_empty_dequeue_returns_none(self):
        q = ThreadQueues(2)
        assert q.dequeue(1) is None

    def test_double_enqueue_rejected(self):
        q = ThreadQueues(2)
        q.enqueue(0, 1)
        with pytest.raises(SimulationError):
            q.enqueue(1, 1)

    def test_least_congested_prefers_shortest(self):
        q = ThreadQueues(3)
        q.enqueue(0, 1)
        q.enqueue(0, 2)
        q.enqueue(1, 3)
        assert q.least_congested() == 2

    def test_least_congested_restricted(self):
        q = ThreadQueues(3)
        q.enqueue(2, 1)
        assert q.least_congested(allowed=[0, 2]) == 0

    def test_steal_tail_takes_newest(self):
        q = ThreadQueues(2)
        q.enqueue(0, 1)
        q.enqueue(0, 2)
        assert q.steal_tail(0) == 2
        assert q.dequeue(0) == 1

    def test_steal_empty_returns_none(self):
        q = ThreadQueues(2)
        assert q.steal_tail(0) is None

    def test_stolen_thread_can_requeue(self):
        q = ThreadQueues(2)
        q.enqueue(0, 1)
        t = q.steal_tail(0)
        q.enqueue(1, t)  # must not raise
        assert q.depth(1) == 1

    def test_deepest_cores_ordering(self):
        q = ThreadQueues(3)
        for t in (1, 2, 3):
            q.enqueue(2, t)
        q.enqueue(0, 4)
        assert q.deepest_cores(min_depth=1) == [2, 0]

    def test_total_waiting(self):
        q = ThreadQueues(2)
        q.enqueue(0, 1)
        q.enqueue(1, 2)
        assert q.total_waiting() == 2
