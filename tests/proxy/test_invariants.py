"""Unit tests for the proxy invariant checker."""

import pytest

from repro.broker.message import Notification
from repro.proxy.invariants import (
    InvariantViolation,
    assert_topic_state,
    check_topic_state,
)
from repro.proxy.state import TopicState
from repro.types import EventId, TopicId

TOPIC = TopicId("t")


def note(event_id, rank=1.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TOPIC,
        rank=rank,
        published_at=0.0,
        expires_at=expires_at,
    )


def healthy_state():
    state = TopicState(TOPIC)
    item = note(1, rank=3.0)
    state.history[item.event_id] = item
    state.prefetch.add(item)
    return state


class TestDetection:
    def test_healthy_state_passes(self):
        state = healthy_state()
        assert check_topic_state(state, now=0.0) == []
        assert_topic_state(state, now=0.0)

    def test_duplicate_across_queues_detected(self):
        state = healthy_state()
        state.outgoing.add(state.history[EventId(1)])
        violations = check_topic_state(state, now=0.0)
        assert any("both" in v for v in violations)

    def test_forwarded_and_queued_detected(self):
        state = healthy_state()
        state.forwarded.add(EventId(1))
        violations = check_topic_state(state, now=0.0)
        assert any("forwarded" in v for v in violations)

    def test_queued_unknown_to_history_detected(self):
        state = healthy_state()
        state.holding.add(note(2))
        violations = check_topic_state(state, now=0.0)
        assert any("history" in v for v in violations)

    def test_long_expired_member_detected(self):
        state = healthy_state()
        doomed = note(3, expires_at=10.0)
        state.history[doomed.event_id] = doomed
        state.prefetch.add(doomed)
        assert check_topic_state(state, now=10.0) == []  # deadline itself is fine
        violations = check_topic_state(state, now=11.0)
        assert any("expired" in v for v in violations)

    def test_below_threshold_member_detected(self):
        state = TopicState(TOPIC, rank_threshold=2.0)
        item = note(1, rank=1.0)
        state.history[item.event_id] = item
        state.prefetch.add(item)
        violations = check_topic_state(state, now=0.0)
        assert any("threshold" in v for v in violations)

    def test_negative_counters_detected(self):
        state = healthy_state()
        state.queue_size = -1
        violations = check_topic_state(state, now=0.0)
        assert any("negative" in v for v in violations)

    def test_assert_raises_with_details(self):
        state = healthy_state()
        state.forwarded.add(EventId(1))
        with pytest.raises(InvariantViolation, match="forwarded"):
            assert_topic_state(state, now=0.0)


class TestOnRealRuns:
    @pytest.mark.parametrize("policy_name", ["online", "on_demand", "unified"])
    def test_scenario_end_state_is_healthy(self, policy_name):
        from repro.experiments.runner import run_scenario
        from repro.proxy.policies import PolicyConfig
        from repro.workload.scenario import build_trace

        from tests.conftest import make_config

        trace = build_trace(
            make_config(days=15.0, outage_fraction=0.5, expiring_fraction=0.5,
                        threshold=1.0),
            seed=9,
        )
        policy = getattr(PolicyConfig, policy_name)()
        # run_scenario does not expose the proxy, so rebuild the wiring
        # here and check invariants at the end of the replay.
        from repro.broker.message import Notification as N
        from repro.experiments.runner import wire_device
        from repro.metrics.accounting import RunStats
        from repro.proxy.proxy import LastHopProxy
        from repro.sim.engine import Simulator

        sim = Simulator()
        proxy = LastHopProxy(sim, policy)
        link, device, _ = wire_device(
            sim, proxy, TOPIC, 1.0, RunStats(), None, None
        )
        for arrival in trace.arrivals:
            sim.schedule_at(
                arrival.time,
                proxy.on_notification,
                N(event_id=arrival.event_id, topic=TOPIC, rank=arrival.rank,
                  published_at=arrival.time, expires_at=arrival.expires_at),
            )
        for read in trace.reads:
            sim.schedule_at(read.time, device.perform_read, TOPIC, read.count)
        for time, status in trace.network_transitions():
            sim.schedule_at(time, link.set_status, status)
        sim.run(until=trace.duration)
        assert_topic_state(proxy.topic_state(TOPIC), sim.now)
