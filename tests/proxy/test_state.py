"""Unit tests for the per-topic proxy state container."""

import pytest

from repro.broker.message import Notification
from repro.proxy.state import TopicState
from repro.sim.engine import Simulator
from repro.types import EventId, TopicId

TOPIC = TopicId("t")


def note(event_id, rank=1.0):
    return Notification(
        event_id=EventId(event_id), topic=TOPIC, rank=rank, published_at=0.0
    )


@pytest.fixture
def state():
    return TopicState(TOPIC)


class TestQueues:
    def test_queued_event_count(self, state):
        state.outgoing.add(note(1))
        state.prefetch.add(note(2))
        state.holding.add(note(3))
        assert state.queued_event_count() == 3

    def test_remove_everywhere(self, state):
        state.outgoing.add(note(1))
        state.prefetch.add(note(1))  # set semantics allow duplication
        assert state.remove_everywhere(EventId(1))
        assert state.queued_event_count() == 0
        assert not state.remove_everywhere(EventId(1))


class TestTimers:
    def test_cancel_timers(self, state):
        sim = Simulator()
        fired = []
        state.expiration_handles[EventId(1)] = sim.schedule(10.0, fired.append, "e")
        state.delay_handles[EventId(1)] = sim.schedule(5.0, fired.append, "d")
        state.cancel_timers(EventId(1))
        sim.run()
        assert fired == []
        assert not state.expiration_handles
        assert not state.delay_handles

    def test_cancel_timers_missing_event_is_noop(self, state):
        state.cancel_timers(EventId(9))


class TestAverages:
    def test_read_averages(self, state):
        assert state.mean_read_size is None
        assert state.mean_read_interval is None
        state.old_reads.push(8.0)
        state.old_times.push(0.0)
        state.old_times.push(50.0)
        assert state.mean_read_size == pytest.approx(8.0)
        assert state.mean_read_interval == pytest.approx(50.0)


class TestDefaults:
    def test_fresh_state(self, state):
        assert state.queue_size == 0
        assert state.prefetch_limit == 0
        assert state.expiration_threshold == 0.0
        assert state.delay == 0.0
        assert state.schedule is None
        assert not state.pending_retractions
