"""Unit tests for the Figure 7 proxy algorithm.

Uses a fake transport so every downlink action is observable without
wiring a full device.
"""

import pytest

from repro.broker.message import Notification
from repro.errors import ConfigurationError, ProxyError
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import (
    DeliveryMode,
    EventId,
    NetworkStatus,
    TopicId,
    TopicType,
)

TOPIC = TopicId("t")


class FakeTransport:
    def __init__(self):
        self.delivered = []
        self.retracted = []

    def deliver(self, notification, mode):
        self.delivered.append((notification, mode))

    def retract(self, event_id):
        self.retracted.append(event_id)

    @property
    def delivered_ids(self):
        return [n.event_id for n, _ in self.delivered]


def build(policy, topic_type=TopicType.ON_DEMAND, rank_threshold=0.0):
    sim = Simulator()
    transport = FakeTransport()
    stats = RunStats()
    proxy = LastHopProxy(sim, policy)
    proxy.add_binding(
        TOPIC,
        transport=transport,
        stats=stats,
        topic_type=topic_type,
        rank_threshold=rank_threshold,
    )
    return sim, transport, proxy


def note(event_id, rank=1.0, published_at=0.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TOPIC,
        rank=rank,
        published_at=published_at,
        expires_at=expires_at,
    )


class TestOnlineForwarding:
    def test_forwards_immediately_when_up(self):
        _sim, transport, proxy = build(PolicyConfig.online())
        proxy.on_notification(note(1))
        assert transport.delivered_ids == [1]
        assert transport.delivered[0][1] is DeliveryMode.PUSHED

    def test_queues_while_down_flushes_on_up(self):
        _sim, transport, proxy = build(PolicyConfig.online())
        proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
        proxy.on_notification(note(1))
        proxy.on_notification(note(2, rank=5.0))
        assert transport.delivered == []
        proxy.on_topic_network(TOPIC, NetworkStatus.UP)
        assert sorted(transport.delivered_ids) == [1, 2]

    def test_online_topic_type_forwards_even_under_prefetch_policy(self):
        _sim, transport, proxy = build(
            PolicyConfig.on_demand(), topic_type=TopicType.ONLINE
        )
        proxy.on_notification(note(1))
        assert transport.delivered_ids == [1]

    def test_expired_while_down_not_forwarded(self):
        sim, transport, proxy = build(PolicyConfig.online())
        proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
        proxy.on_notification(note(1, expires_at=10.0))
        sim.run(until=20.0)
        proxy.on_topic_network(TOPIC, NetworkStatus.UP)
        assert transport.delivered == []
        assert proxy.topic_state(TOPIC).stats.expired_at_proxy == 1


class TestThresholdFiltering:
    def test_below_threshold_filtered(self):
        _sim, transport, proxy = build(PolicyConfig.online(), rank_threshold=2.0)
        proxy.on_notification(note(1, rank=1.9))
        proxy.on_notification(note(2, rank=2.0))
        assert transport.delivered_ids == [2]
        assert proxy.topic_state(TOPIC).stats.filtered == 1
        assert proxy.topic_state(TOPIC).stats.accepted == 1


class TestOnDemand:
    def test_nothing_pushed(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        for i in range(5):
            proxy.on_notification(note(i, rank=float(i)))
        assert transport.delivered == []

    def test_read_pulls_highest_ranked(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        for i in range(5):
            proxy.on_notification(note(i, rank=float(i)))
        response = proxy.on_read(TOPIC, 2, queue_size=0)
        assert [n.event_id for n in response.sent] == [4, 3]
        assert transport.delivered_ids == [4, 3]
        assert all(mode is DeliveryMode.PULLED for _, mode in transport.delivered)

    def test_read_does_not_resend_client_events(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        for i in range(4):
            proxy.on_notification(note(i, rank=float(i)))
        # Client already holds the two best events.
        response = proxy.on_read(
            TOPIC, 2, queue_size=2, client_events=[(EventId(90), 9.0), (EventId(91), 8.0)]
        )
        assert response.sent == ()
        assert transport.delivered == []

    def test_read_ships_only_improvements(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        proxy.on_notification(note(1, rank=5.0))
        proxy.on_notification(note(2, rank=1.0))
        response = proxy.on_read(
            TOPIC, 2, queue_size=1, client_events=[(EventId(50), 3.0)]
        )
        # Only the rank-5 event beats the client's rank-3 holding.
        assert [n.event_id for n in response.sent] == [1]

    def test_read_while_down_raises(self):
        _sim, _transport, proxy = build(PolicyConfig.on_demand())
        proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
        with pytest.raises(ProxyError):
            proxy.on_read(TOPIC, 2, queue_size=0)

    def test_read_with_negative_n_raises(self):
        _sim, _transport, proxy = build(PolicyConfig.on_demand())
        with pytest.raises(ProxyError):
            proxy.on_read(TOPIC, -1, queue_size=0)

    def test_pulled_event_not_resent_later(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        proxy.on_notification(note(1, rank=5.0))
        proxy.on_read(TOPIC, 1, queue_size=0)
        proxy.on_read(TOPIC, 1, queue_size=1, client_events=[(EventId(1), 5.0)])
        assert transport.delivered_ids == [1]


class TestBufferPrefetch:
    def test_prefetches_up_to_limit(self):
        _sim, transport, proxy = build(PolicyConfig.buffer(prefetch_limit=3))
        for i in range(6):
            proxy.on_notification(note(i, rank=float(i)))
        assert len(transport.delivered) == 3
        # Highest ranked at the time of each forwarding decision.
        assert transport.delivered_ids == [0, 1, 2]

    def test_queue_report_opens_room(self):
        _sim, transport, proxy = build(PolicyConfig.buffer(prefetch_limit=2))
        for i in range(4):
            proxy.on_notification(note(i, rank=float(i)))
        assert len(transport.delivered) == 2
        proxy.on_queue_report(TOPIC, 0)  # device consumed everything
        proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
        proxy.on_topic_network(TOPIC, NetworkStatus.UP)
        assert len(transport.delivered) == 4

    def test_read_syncs_queue_size(self):
        _sim, transport, proxy = build(PolicyConfig.buffer(prefetch_limit=2))
        for i in range(5):
            proxy.on_notification(note(i, rank=float(i)))
        assert len(transport.delivered) == 2
        # Device reports an empty queue: read pulls n, prefetch refills.
        proxy.on_read(TOPIC, 1, queue_size=0)
        assert len(transport.delivered) > 2

    def test_prefetch_limit_zero_never_pushes(self):
        _sim, transport, proxy = build(PolicyConfig.buffer(prefetch_limit=0))
        proxy.on_notification(note(1, rank=5.0))
        assert transport.delivered == []


class TestExpirations:
    def test_expired_event_removed_from_prefetch(self):
        sim, transport, proxy = build(PolicyConfig.buffer(prefetch_limit=0))
        proxy.on_notification(note(1, rank=5.0, expires_at=10.0))
        sim.run(until=15.0)
        response = proxy.on_read(TOPIC, 5, queue_size=0)
        assert response.sent == ()
        assert proxy.topic_state(TOPIC).stats.expired_at_proxy == 1

    def test_holding_queue_for_short_lived(self):
        _sim, transport, proxy = build(
            PolicyConfig.unified(expiration_threshold=100.0)
        )
        proxy.on_notification(note(1, rank=5.0, expires_at=50.0))   # short-lived
        proxy.on_notification(note(2, rank=4.0, expires_at=500.0))  # long-lived
        state = proxy.topic_state(TOPIC)
        assert EventId(1) in state.holding
        assert EventId(1) not in state.prefetch
        # The long-lived one was prefetched (initial limit 16).
        assert transport.delivered_ids == [2]

    def test_held_event_still_pulled_by_read(self):
        _sim, transport, proxy = build(
            PolicyConfig.unified(expiration_threshold=100.0, initial_prefetch_limit=0)
        )
        proxy.on_notification(note(1, rank=5.0, expires_at=50.0))
        response = proxy.on_read(TOPIC, 3, queue_size=0)
        assert [n.event_id for n in response.sent] == [1]

    def test_adaptive_threshold_follows_read_interval(self):
        sim, _transport, proxy = build(PolicyConfig.unified())
        state = proxy.topic_state(TOPIC)
        assert state.expiration_threshold == 0.0
        proxy.on_read(TOPIC, 8, queue_size=0)
        sim.run(until=100.0)
        proxy.on_read(TOPIC, 8, queue_size=0)
        assert state.expiration_threshold == pytest.approx(100.0)

    def test_dead_on_arrival_not_accepted(self):
        sim, transport, proxy = build(PolicyConfig.online())
        sim.run(until=100.0)
        proxy.on_notification(note(1, rank=1.0, published_at=0.0, expires_at=50.0))
        assert transport.delivered == []
        assert proxy.topic_state(TOPIC).stats.accepted == 0

    def test_read_prunes_expired_from_queues(self):
        # A read that lands exactly on an expiry timestamp runs before
        # the expiration timer (it was scheduled earlier, so it has a
        # lower engine sequence number). The proxy must prune and
        # account the expired event itself, not merely skip it.
        sim, transport, proxy = build(PolicyConfig.on_demand())
        responses = []
        sim.schedule_at(
            5.0, lambda: responses.append(proxy.on_read(TOPIC, 2, queue_size=0))
        )
        sim.schedule_at(
            0.0, proxy.on_notification, note(1, rank=5.0, expires_at=5.0)
        )
        sim.schedule_at(0.0, proxy.on_notification, note(2, rank=1.0))
        sim.run(until=5.0)
        (response,) = responses
        assert [n.event_id for n in response.sent] == [2]
        assert response.candidates == 1  # the expired event never competed
        assert proxy.topic_state(TOPIC).stats.expired_at_proxy == 1
        assert proxy.topic_state(TOPIC).queued_event_count() == 0

    def test_read_pruning_not_double_counted_by_timer(self):
        sim, _transport, proxy = build(PolicyConfig.on_demand())
        sim.schedule_at(5.0, proxy.on_read, TOPIC, 1, 0)
        sim.schedule_at(
            0.0, proxy.on_notification, note(1, rank=5.0, expires_at=5.0)
        )
        sim.run(until=10.0)  # lets the (cancelled) expiry timer drain too
        assert proxy.topic_state(TOPIC).stats.expired_at_proxy == 1


class TestRankChanges:
    def test_drop_below_threshold_before_forward_discards(self):
        _sim, transport, proxy = build(
            PolicyConfig.buffer(prefetch_limit=0), rank_threshold=2.0
        )
        proxy.on_notification(note(1, rank=3.0))
        proxy.on_notification(note(1, rank=1.0))  # rank-change announcement
        state = proxy.topic_state(TOPIC)
        assert state.queued_event_count() == 0
        assert proxy.topic_state(TOPIC).stats.dropped_before_forward == 1
        response = proxy.on_read(TOPIC, 5, queue_size=0)
        assert response.sent == ()

    def test_drop_after_forward_sends_retraction(self):
        _sim, transport, proxy = build(
            PolicyConfig.buffer(prefetch_limit=8), rank_threshold=2.0
        )
        proxy.on_notification(note(1, rank=3.0))
        assert transport.delivered_ids == [1]
        proxy.on_notification(note(1, rank=1.0))
        assert transport.retracted == [EventId(1)]
        assert proxy.topic_state(TOPIC).stats.retractions_sent == 1

    def test_retraction_waits_for_link(self):
        _sim, transport, proxy = build(
            PolicyConfig.buffer(prefetch_limit=8), rank_threshold=2.0
        )
        proxy.on_notification(note(1, rank=3.0))
        proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
        proxy.on_notification(note(1, rank=1.0))
        assert transport.retracted == []
        proxy.on_topic_network(TOPIC, NetworkStatus.UP)
        assert transport.retracted == [EventId(1)]

    def test_retractions_flushed_in_drop_order(self):
        # Retractions queued while the link is down go out FIFO: the
        # device learns of rank drops in the order they happened.
        _sim, transport, proxy = build(
            PolicyConfig.buffer(prefetch_limit=8), rank_threshold=2.0
        )
        for i in (1, 2, 3):
            proxy.on_notification(note(i, rank=3.0))
        assert sorted(transport.delivered_ids) == [1, 2, 3]
        proxy.on_topic_network(TOPIC, NetworkStatus.DOWN)
        for i in (2, 1, 3):  # drops arrive in this order
            proxy.on_notification(note(i, rank=1.0))
        assert transport.retracted == []
        proxy.on_topic_network(TOPIC, NetworkStatus.UP)
        assert transport.retracted == [EventId(2), EventId(1), EventId(3)]
        assert proxy.topic_state(TOPIC).stats.retractions_sent == 3

    def test_retraction_sent_once(self):
        _sim, transport, proxy = build(
            PolicyConfig.buffer(prefetch_limit=8), rank_threshold=2.0
        )
        proxy.on_notification(note(1, rank=3.0))
        proxy.on_notification(note(1, rank=1.0))
        proxy.on_notification(note(1, rank=0.5))
        assert transport.retracted == [EventId(1)]

    def test_boost_reorders_queue(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        proxy.on_notification(note(1, rank=1.0))
        proxy.on_notification(note(2, rank=2.0))
        proxy.on_notification(note(1, rank=5.0))  # boost
        response = proxy.on_read(TOPIC, 1, queue_size=0)
        assert [n.event_id for n in response.sent] == [1]
        assert proxy.topic_state(TOPIC).stats.rank_changes == 1

    def test_drop_within_threshold_only_reorders(self):
        _sim, transport, proxy = build(PolicyConfig.on_demand())
        proxy.on_notification(note(1, rank=5.0))
        proxy.on_notification(note(2, rank=4.0))
        proxy.on_notification(note(1, rank=3.0))  # drop but still acceptable
        response = proxy.on_read(TOPIC, 1, queue_size=0)
        assert [n.event_id for n in response.sent] == [2]


class TestDelayStage:
    def test_static_delay_defers_prefetch(self):
        sim, transport, proxy = build(
            PolicyConfig(kind=proxy_kind_unified(), delay=30.0)
        )
        proxy.on_notification(note(1, rank=5.0))
        assert transport.delivered == []
        sim.run(until=30.0)
        assert transport.delivered_ids == [1]

    def test_drop_during_delay_never_forwards(self):
        sim, transport, proxy = build(
            PolicyConfig(kind=proxy_kind_unified(), delay=30.0), rank_threshold=2.0
        )
        proxy.on_notification(note(1, rank=3.0))
        sim.schedule(10.0, proxy.on_notification, note(1, rank=0.5))
        sim.run(until=60.0)
        assert transport.delivered == []
        assert transport.retracted == []
        assert proxy.topic_state(TOPIC).stats.dropped_before_forward == 1

    def test_expiry_during_delay_never_forwards(self):
        sim, transport, proxy = build(
            PolicyConfig(kind=proxy_kind_unified(), delay=30.0)
        )
        proxy.on_notification(note(1, rank=5.0, expires_at=10.0))
        sim.run(until=60.0)
        assert transport.delivered == []

    def test_delayed_event_invisible_to_read_until_delay_expires(self):
        sim, transport, proxy = build(
            PolicyConfig(kind=proxy_kind_unified(), delay=30.0,
                         initial_prefetch_limit=0)
        )
        proxy.on_notification(note(1, rank=5.0))
        response = proxy.on_read(TOPIC, 5, queue_size=0)
        assert response.sent == ()     # still in the delay stage
        assert transport.delivered == []
        # After the delay the event becomes prefetchable and is pushed
        # (the READ above established an adaptive limit of 2 * 5).
        sim.run(until=30.0)
        assert transport.delivered_ids == [1]


def proxy_kind_unified():
    from repro.types import PolicyKind

    return PolicyKind.UNIFIED


class TestAdaptivePrefetchLimit:
    def test_limit_follows_read_sizes(self):
        sim, _transport, proxy = build(
            PolicyConfig.unified(initial_prefetch_limit=7)
        )
        state = proxy.topic_state(TOPIC)
        proxy.on_notification(note(1, rank=1.0))
        assert state.prefetch_limit == 7  # before any read
        proxy.on_read(TOPIC, 4, queue_size=0)
        assert state.prefetch_limit == 8  # 2 * MA([4])
        sim.run(until=10.0)
        proxy.on_read(TOPIC, 12, queue_size=0)
        assert state.prefetch_limit == 16  # 2 * MA([4, 12])


class TestTopicManagement:
    def test_duplicate_topic_rejected(self):
        _sim, _transport, proxy = build(PolicyConfig.online())
        with pytest.raises(ConfigurationError):
            proxy.add_binding(TOPIC, transport=FakeTransport(), stats=RunStats())

    def test_unknown_topic_rejected(self):
        _sim, _transport, proxy = build(PolicyConfig.online())
        with pytest.raises(ProxyError):
            proxy.topic_state(TopicId("nope"))
        with pytest.raises(ProxyError):
            proxy.on_read(TopicId("nope"), 1, queue_size=0)

    def test_negative_queue_report_rejected(self):
        _sim, _transport, proxy = build(PolicyConfig.online())
        with pytest.raises(ProxyError):
            proxy.on_queue_report(TOPIC, -1)

    def test_topics_listed(self):
        _sim, _transport, proxy = build(PolicyConfig.online())
        assert proxy.topics == [TOPIC]

