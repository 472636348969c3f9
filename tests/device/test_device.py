"""Unit tests for the mobile client device."""

from functools import partial

import pytest

from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.errors import ConfigurationError, DeviceError
from repro.experiments.runner import wire_device
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import DeliveryMode, EventId, NetworkStatus, TopicId

TOPIC = TopicId("t")


def note(event_id, rank=1.0, published_at=0.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TOPIC,
        rank=rank,
        published_at=published_at,
        expires_at=expires_at,
    )


def build(threshold=0.0, with_proxy=None):
    sim = Simulator()
    stats = RunStats()
    if with_proxy is not None:
        proxy = LastHopProxy(sim, with_proxy)
        link, device, _ = wire_device(
            sim, proxy, TOPIC, threshold, stats, None, None
        )
        return sim, link, device, stats, proxy
    link = LastHopLink(sim, stats)
    device = ClientDevice(sim, link, stats)
    device.add_topic(TOPIC, threshold)
    return sim, link, device, stats, None


class TestQueueing:
    def test_receive_accumulates(self):
        _sim, _link, device, _stats, _ = build()
        device.receive(note(1, rank=2.0), DeliveryMode.PUSHED)
        device.receive(note(2, rank=5.0), DeliveryMode.PUSHED)
        assert device.queue_size(TOPIC) == 2
        assert device.top_events(TOPIC, 1) == [(EventId(2), 5.0)]
        assert [m.event_id for m in device.unread(TOPIC)] == [2, 1]

    def test_unknown_topic_rejected(self):
        _sim, _link, device, _stats, _ = build()
        with pytest.raises(DeviceError):
            device.queue_size(TopicId("nope"))

    def test_duplicate_topic_rejected(self):
        _sim, _link, device, _stats, _ = build()
        with pytest.raises(ConfigurationError):
            device.add_topic(TOPIC)


class TestExpiryOnDevice:
    def test_expired_message_removed_and_counted(self):
        sim, _link, device, stats, _ = build()
        device.receive(note(1, expires_at=10.0), DeliveryMode.PUSHED)
        sim.run(until=15.0)
        assert device.queue_size(TOPIC) == 0
        assert stats.expired_on_device == 1

    def test_read_message_does_not_count_as_expired(self):
        sim, _link, device, stats, _ = build()
        device.receive(note(1, expires_at=10.0), DeliveryMode.PUSHED)
        outcome = device.perform_read(TOPIC, 5)
        assert outcome.count == 1
        sim.run(until=15.0)
        assert stats.expired_on_device == 0


class TestRetraction:
    def test_retract_removes_unread(self):
        _sim, _link, device, stats, _ = build()
        device.receive(note(1), DeliveryMode.PUSHED)
        device.retract(EventId(1))
        assert device.queue_size(TOPIC) == 0
        assert stats.retracted_on_device == 1

    def test_retract_unknown_is_noop(self):
        _sim, _link, device, stats, _ = build()
        device.retract(EventId(9))
        assert stats.retracted_on_device == 0

    def test_device_keeps_delivered_rank_until_retraction_lands(self):
        # The proxy boosts, then drops, an event the device already
        # holds while the link is down: the device learns of neither
        # and keeps reading the event at the rank it was delivered with.
        _sim, link, device, stats, proxy = build(
            threshold=1.0, with_proxy=PolicyConfig.online()
        )
        proxy.on_notification(note(1, rank=3.0))
        assert device.top_events(TOPIC, 5) == [(EventId(1), 3.0)]
        link.set_status(NetworkStatus.DOWN)
        proxy.on_notification(note(1, rank=4.5))  # boost
        proxy.on_notification(note(1, rank=0.5))  # drop below threshold
        assert device.top_events(TOPIC, 5) == [(EventId(1), 3.0)]
        assert [m.rank for m in device.unread(TOPIC)] == [3.0]
        link.set_status(NetworkStatus.UP)  # the retraction lands
        assert device.queue_size(TOPIC) == 0
        assert stats.retracted_on_device == 1

    def test_device_reads_held_event_at_delivered_rank(self):
        _sim, link, device, stats, proxy = build(
            threshold=1.0, with_proxy=PolicyConfig.online()
        )
        proxy.on_notification(note(1, rank=3.0))
        link.set_status(NetworkStatus.DOWN)
        proxy.on_notification(note(1, rank=0.5))  # retraction still pending
        outcome = device.perform_read(TOPIC, 5)
        assert [(m.event_id, m.rank) for m in outcome.consumed] == [(EventId(1), 3.0)]
        assert stats.read_ids == {EventId(1)}


class TestReads:
    def test_read_consumes_top_n_above_threshold(self):
        _sim, _link, device, stats, _ = build(threshold=2.0)
        device.receive(note(1, rank=1.0), DeliveryMode.PUSHED)   # below threshold
        device.receive(note(2, rank=3.0), DeliveryMode.PUSHED)
        device.receive(note(3, rank=5.0), DeliveryMode.PUSHED)
        device.receive(note(4, rank=4.0), DeliveryMode.PUSHED)
        outcome = device.perform_read(TOPIC, 2)
        assert [m.event_id for m in outcome.consumed] == [3, 4]
        assert device.queue_size(TOPIC) == 2
        assert stats.read_ids == {EventId(3), EventId(4)}

    def test_empty_read_counted(self):
        _sim, _link, device, stats, _ = build()
        outcome = device.perform_read(TOPIC, 5)
        assert outcome.count == 0
        assert stats.empty_reads == 1

    def test_read_during_outage_sees_local_queue_only(self):
        _sim, link, device, stats, proxy = build(with_proxy=PolicyConfig.on_demand())
        proxy.on_notification(note(1, rank=5.0))
        link.set_status(NetworkStatus.DOWN)
        outcome = device.perform_read(TOPIC, 5)
        assert outcome.offline
        assert outcome.count == 0
        assert stats.reads_during_outage == 1

    def test_read_pulls_from_proxy_when_up(self):
        _sim, _link, device, stats, proxy = build(with_proxy=PolicyConfig.on_demand())
        proxy.on_notification(note(1, rank=5.0))
        outcome = device.perform_read(TOPIC, 5)
        assert outcome.fetched == 1
        assert outcome.count == 1
        assert not outcome.offline

    def test_read_age_recorded(self):
        sim, _link, device, stats, _ = build()
        device.receive(note(1, published_at=0.0), DeliveryMode.PUSHED)
        sim.schedule(100.0, lambda: None)
        sim.run()
        device.perform_read(TOPIC, 1)
        assert stats.mean_read_age == pytest.approx(100.0)


class TestReconnectReport:
    def test_queue_report_sent_on_link_up(self):
        _sim, link, device, _stats, proxy = build(
            with_proxy=PolicyConfig.buffer(prefetch_limit=4)
        )
        device.receive(note(1), DeliveryMode.PUSHED)
        device.receive(note(2), DeliveryMode.PUSHED)
        state = proxy.topic_state(TOPIC)
        state.queue_size = 99  # deliberately stale
        link.set_status(NetworkStatus.DOWN)
        link.set_status(NetworkStatus.UP)
        assert state.queue_size == 2

    def test_report_disabled(self):
        sim = Simulator()
        stats = RunStats()
        link = LastHopLink(sim, stats)
        device = ClientDevice(sim, link, stats, report_on_reconnect=False)
        device.add_topic(TOPIC)
        proxy = LastHopProxy(sim, PolicyConfig.buffer(prefetch_limit=4))
        proxy.add_binding(TOPIC, transport=link, stats=stats)
        device.attach_proxy(proxy)
        link.add_status_listener(partial(proxy.on_topic_network, TOPIC))
        state = proxy.topic_state(TOPIC)
        state.queue_size = 99
        link.set_status(NetworkStatus.DOWN)
        link.set_status(NetworkStatus.UP)
        assert state.queue_size == 99
